// Package repair closes VEGA's correctness loop: after Stage 3 emits a
// function, the oracle executes it against the held-out ground-truth
// implementation through the internal/eval regression harness (the same
// interpreter stack the paper's pass@1 numbers come from). On divergence
// it captures a minimal counterexample — the first failing input grid
// case plus the first diverging statement — and the engine re-decodes the
// refuted statements under constraints: refuted candidates are pruned,
// the surviving candidates are re-ranked by verification outcome, and the
// loop retries for a bounded number of CEGAR rounds. A function that cannot be
// repaired is returned exactly as generated, so verified pass@1 is never
// below plain pass@1.
package repair

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/eval"
	"vega/internal/generate"
	"vega/internal/gumtree"
	"vega/internal/interp"
)

// Counterexample is the minimal divergence witness the oracle derives
// from the first failing regression case.
type Counterexample struct {
	// Input renders the failing case's arguments ("" for functions whose
	// only oracle is textual equivalence).
	Input string
	// Got / Want render the observed and expected outcomes.
	Got, Want string
	// Row is the template row of the first diverging statement (-1 when
	// the divergence could not be localized).
	Row int
	// Stmt is the refuted statement's text ("" when the divergence is a
	// statement the generation dropped).
	Stmt string
}

func (ce *Counterexample) String() string {
	if ce == nil {
		return ""
	}
	var b strings.Builder
	if ce.Input != "" {
		fmt.Fprintf(&b, "on %s: ", ce.Input)
	}
	fmt.Fprintf(&b, "got %s, want %s", ce.Got, ce.Want)
	if ce.Row >= 0 {
		if ce.Stmt != "" {
			fmt.Fprintf(&b, "; first diverging statement (row %d): %s", ce.Row, ce.Stmt)
		} else {
			fmt.Fprintf(&b, "; first divergence at dropped row %d", ce.Row)
		}
	}
	return b.String()
}

// Suspect is one statement the counterexample implicates: a candidate row
// for constrained re-decoding.
type Suspect struct {
	// Row is the template row to re-decode.
	Row int
	// Text is the row's current text (the refuted candidate; "" when the
	// row is currently absent/dropped).
	Text string
	// ForcePresent marks rows the alignment shows as missing relative to
	// the reference: re-decoding should propose present statements, not
	// the absent marker again.
	ForcePresent bool
}

// Verdict is one verification outcome.
type Verdict struct {
	// NoOracle: no ground-truth implementation exists for the function.
	NoOracle bool
	// Pass: the function agrees with the reference on every observable.
	Pass bool
	// Passed / Total count regression cases (for functions with a suite)
	// or exactly-matching statements (textual fallback) — the score the
	// engine re-ranks repair candidates by.
	Passed, Total int
	// CE is the minimal counterexample of a failing verdict.
	CE *Counterexample
	// Suspects lists the implicated rows, strongest first.
	Suspects []Suspect
}

// Oracle verifies generated functions against one reference backend.
// Each Verify call builds a fresh eval.Universe, so the oracle is safe
// for concurrent use from the generation worker pool; within the call,
// the universe builds its interpreter environment once and every
// regression case of both implementations reuses it.
type Oracle struct {
	// Ref is the ground-truth backend (nil = nothing to verify against).
	Ref *corpus.Backend

	// refs caches each reference function's canonical statements and
	// their tokens by function name: the reference never changes, and
	// every failing verification of a repair loop aligns against it.
	// One engine serves every generation worker, hence mu.
	mu   sync.Mutex
	refs map[string]*refStatements
}

// refStatements is a reference function in the comparison space: its
// canonical statements and each one's tokens. Shared; read-only.
type refStatements struct {
	texts []string
	toks  [][]string
}

// refStatementsFor returns the cached canonical form of the reference
// function name.
func (o *Oracle) refStatementsFor(name string, ref *cpp.Node) *refStatements {
	o.mu.Lock()
	rs, ok := o.refs[name]
	o.mu.Unlock()
	if ok {
		return rs
	}
	texts := eval.CanonicalStatements(ref)
	rs = &refStatements{texts: texts, toks: eval.TokenizeLines(texts)}
	o.mu.Lock()
	if o.refs == nil {
		o.refs = make(map[string]*refStatements)
	}
	o.refs[name] = rs
	o.mu.Unlock()
	return rs
}

// Verify executes fn against the reference implementation and derives
// the counterexample and suspect set on divergence. The pass criterion
// matches eval.EvaluateFunction exactly: the rendered function must
// reparse, and either agree with the reference on every regression case
// or (for functions without a suite) be canonically text-equal.
func (o *Oracle) Verify(fn *generate.Function) Verdict {
	if o == nil || o.Ref == nil {
		return Verdict{NoOracle: true}
	}
	ref := o.Ref.Funcs[fn.Name]
	if ref == nil {
		return Verdict{NoOracle: true}
	}
	u := eval.NewUniverse(o.Ref)
	var v Verdict
	genFn, perr := fn.Parse()
	switch {
	case perr != nil:
		v.CE = &Counterexample{
			Got:  "unparseable function (" + firstLine(perr.Error()) + ")",
			Want: "a parseable function",
			Row:  -1,
		}
	default:
		cpp.Normalize(genFn)
		cases := eval.Suite(fn.Name, u)
		if len(cases) == 0 {
			v = textualVerdict(genFn, o.refStatementsFor(fn.Name, ref))
		} else {
			v = suiteVerdict(u, genFn, ref, cases)
		}
	}
	if !v.Pass {
		v.Suspects = suspects(fn, o.refStatementsFor(fn.Name, ref))
		if v.CE != nil && v.CE.Row < 0 && len(v.Suspects) > 0 {
			v.CE.Row = v.Suspects[0].Row
			v.CE.Stmt = v.Suspects[0].Text
		}
	}
	return v
}

// suiteVerdict runs the regression grid; the first failing case becomes
// the counterexample (suites enumerate simple inputs first, so the first
// failure is the minimal witness).
func suiteVerdict(u *eval.Universe, genFn, ref *cpp.Node, cases []eval.Case) Verdict {
	v := Verdict{Total: len(cases)}
	for _, c := range cases {
		got := u.RunCase(genFn, c)
		want := u.RunCase(ref, c)
		// eval.FunctionPasses fails any function that raises a runtime
		// error, even where the reference does too — mirror that.
		if !got.Err && got.Equal(want) {
			v.Passed++
			continue
		}
		if v.CE == nil {
			v.CE = &Counterexample{
				Input: renderCase(c),
				Got:   renderOutcome(got),
				Want:  renderOutcome(want),
				Row:   -1,
			}
		}
	}
	v.Pass = v.Passed == v.Total
	return v
}

// textualVerdict is the no-suite fallback: canonical statement equality,
// scored by exactly-matching aligned statements so the engine still has a
// gradient to re-rank candidates by.
func textualVerdict(genFn *cpp.Node, ref *refStatements) Verdict {
	genTexts := eval.CanonicalStatements(genFn)
	refTexts := ref.texts
	v := Verdict{Total: len(refTexts)}
	if strings.Join(genTexts, "\n") == strings.Join(refTexts, "\n") {
		v.Pass = true
		v.Passed = v.Total
		return v
	}
	pairs := gumtree.AlignTokenized(eval.TokenizeLines(genTexts), ref.toks,
		gumtree.AlignOptions{MinSim: 0.3})
	for _, p := range pairs {
		if p.A >= 0 && p.B >= 0 && genTexts[p.A] == refTexts[p.B] {
			v.Passed++
		}
	}
	v.CE = &Counterexample{
		Got:  fmt.Sprintf("%d/%d statements textually equivalent", v.Passed, v.Total),
		Want: "canonical text equality (function has no execution suite)",
		Row:  -1,
	}
	return v
}

// suspects localizes the divergence: the generated function's kept
// statements are aligned against the reference's canonical statements.
// Mismatched rows come first (wrong values), then spurious rows (matched
// nothing), then — when reference statements went unmatched — the
// dropped/absent rows with ForcePresent set.
func suspects(fn *generate.Function, ref *refStatements) []Suspect {
	type keptRow struct {
		row  int
		text string // raw
		can  string // canonical
	}
	var kept []keptRow
	for _, s := range fn.Statements {
		if s.Kept() {
			kept = append(kept, keptRow{row: s.Row, text: s.Text, can: eval.CanonicalText(s.Text)})
		}
	}
	refTexts := ref.texts
	tg := make([][]string, len(kept))
	for i, k := range kept {
		tg[i] = eval.TokenizeLine(k.can)
	}
	pairs := gumtree.AlignTokenized(tg, ref.toks, gumtree.AlignOptions{MinSim: 0.3})
	var mismatched, spurious []Suspect
	refMatched := make([]bool, len(refTexts))
	for _, p := range pairs {
		switch {
		case p.A >= 0 && p.B >= 0:
			refMatched[p.B] = true
			if kept[p.A].can != refTexts[p.B] {
				mismatched = append(mismatched, Suspect{Row: kept[p.A].row, Text: kept[p.A].text})
			}
		case p.A >= 0:
			spurious = append(spurious, Suspect{Row: kept[p.A].row, Text: kept[p.A].text})
		}
	}
	out := append(mismatched, spurious...)
	missing := false
	for _, m := range refMatched {
		if !m {
			missing = true
			break
		}
	}
	if missing {
		for _, s := range fn.Statements {
			if !s.Kept() {
				out = append(out, Suspect{Row: s.Row, Text: s.Text, ForcePresent: true})
			}
		}
	}
	return out
}

// --- rendering helpers ---

func renderCase(c eval.Case) string {
	parts := make([]string, 0, len(c.Args)+len(c.Globals))
	for _, k := range sortedKeys(c.Args) {
		parts = append(parts, k+"="+renderValue(c.Args[k]))
	}
	for _, k := range sortedKeys(c.Globals) {
		parts = append(parts, k+"="+renderValue(c.Globals[k]))
	}
	if len(parts) == 0 {
		return "()"
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func renderValue(v any) string {
	if obj, ok := v.(*interp.Object); ok {
		return "<" + obj.Name + ">"
	}
	return fmt.Sprintf("%v", v)
}

func renderOutcome(o eval.Outcome) string {
	switch {
	case o.Err:
		return "runtime error"
	case o.Fatal:
		return "fatal"
	}
	s := "ret=" + o.Ret
	if len(o.Effects) > 0 {
		s += " effects=[" + strings.Join(o.Effects, "; ") + "]"
	}
	return s
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
