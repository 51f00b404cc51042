package eval

import (
	"errors"
	"fmt"
	"maps"
	"strings"

	"vega/internal/cpp"
	"vega/internal/generate"
	"vega/internal/gumtree"
	"vega/internal/interp"
	"vega/internal/template"
)

// Outcome is the observable result of one regression case.
type Outcome struct {
	Ret     string
	Effects []string
	Fatal   bool
	Err     bool // runtime error: the code did something inexplicable
}

// Equal compares outcomes.
func (o Outcome) Equal(p Outcome) bool {
	if o.Fatal != p.Fatal || o.Err != p.Err || o.Ret != p.Ret || len(o.Effects) != len(p.Effects) {
		return false
	}
	for i := range o.Effects {
		if o.Effects[i] != p.Effects[i] {
			return false
		}
	}
	return true
}

// RunCase executes fn under one case and captures the outcome. The case
// shares the universe's base environment; one that overrides globals
// gets its own copy of the base Globals with the overrides applied.
func (u *Universe) RunCase(fn *cpp.Node, c Case) Outcome {
	u.ResetEffects()
	if u.base == nil {
		u.base = u.buildEnv(0, func() *interp.Env { return u.running })
	}
	env := &interp.Env{
		Globals:   u.base.Globals,
		Qualified: u.base.Qualified,
		Funcs:     u.base.Funcs,
		MaxSteps:  200_000,
	}
	if len(c.Globals) > 0 {
		env.Globals = maps.Clone(env.Globals)
		maps.Copy(env.Globals, c.Globals)
	}
	u.running = env
	ret, err := interp.Call(fn, env, c.Args)
	return u.outcome(ret, err)
}

// outcome captures a finished case run: its return value or the kind of
// error that ended it, and the effects it recorded.
func (u *Universe) outcome(ret any, err error) Outcome {
	out := Outcome{Effects: u.Effects()}
	switch {
	case err == nil:
		out.Ret = fmt.Sprintf("%v", ret)
	default:
		var fatal interp.Fatal
		if errors.As(err, &fatal) {
			out.Fatal = true
		} else {
			out.Err = true
		}
	}
	return out
}

// FunctionPasses runs the full suite for an interface function over both
// implementations and reports pass@1 agreement. Functions without a suite
// fall back to textual equivalence.
func (u *Universe) FunctionPasses(name string, gen, ref *cpp.Node) bool {
	cases := Suite(name, u)
	if len(cases) == 0 {
		return canonicalFunc(gen) == canonicalFunc(ref)
	}
	for _, c := range cases {
		got := u.RunCase(gen, c)
		if got.Err {
			return false
		}
		want := u.RunCase(ref, c)
		if !got.Equal(want) {
			return false
		}
	}
	return true
}

func canonicalFunc(fn *cpp.Node) string {
	if fn == nil {
		return ""
	}
	return strings.Join(cpp.StatementTexts(cpp.SplitFunction(fn)), "\n")
}

// FuncResult is the evaluation of one generated function.
type FuncResult struct {
	Name    string
	Module  string
	Target  string
	Emitted bool // VEGA produced the function (definition kept)
	// RefExists reports whether the base compiler implements it.
	RefExists bool
	// Accurate is the pass@1 verdict.
	Accurate bool
	// Parsed reports whether the rendered function reparses.
	Parsed bool
	// Confidence is the function-level score (first statement's).
	Confidence float64
	// MultiSource marks accurate functions whose statements draw on more
	// than one training target (Fig. 8's purple share).
	MultiSource bool
	// Verified carries the verify-and-repair status when Config.Verify
	// was on during generation (VerifyNone otherwise).
	Verified generate.VerifyStatus
	// RepairRounds counts the CEGAR rounds the repair loop ran for this
	// function.
	RepairRounds int

	// Statement-level accounting (Fig. 9 / Table 3).
	RefStatements      int
	AccurateStatements int
	ManualEffort       int

	// Error taxonomy (Table 2).
	ErrV, ErrCS, ErrDef bool
}

// EvaluateFunction scores one generated function against the reference.
// ft gives access to the training targets' statements for multi-source
// attribution (may be nil).
func (u *Universe) EvaluateFunction(f *generate.Function, ref *cpp.Node, ft *template.FunctionTemplate) FuncResult {
	res := FuncResult{
		Name: f.Name, Module: f.Module, Target: f.Target,
		Emitted:    f.Generated(),
		RefExists:  ref != nil,
		Confidence: f.Confidence(),
	}
	if f.Verify != nil {
		res.Verified = f.Verify.Status
		res.RepairRounds = f.Verify.Rounds
	}

	var refTexts []string
	if ref != nil {
		refTexts = canonicalStatements(ref)
		res.RefStatements = len(refTexts)
	}

	if !res.Emitted {
		// Correct omission when the base compiler also lacks it.
		res.Accurate = !res.RefExists
		if res.RefExists {
			res.ErrDef = true
			res.ManualEffort = res.RefStatements
		}
		return res
	}
	if !res.RefExists {
		// Hallucinated function: everything it contains is manual effort
		// to delete; statement counts stay at zero.
		res.ErrDef = true
		return res
	}

	genFn, err := f.Parse()
	if err == nil {
		res.Parsed = true
		cpp.Normalize(genFn)
		res.Accurate = u.FunctionPasses(f.Name, genFn, ref)
	}

	// Statement-level alignment for Fig. 9 / Table 3 and the taxonomy.
	genTexts := keptTexts(f)
	res.AccurateStatements, res.ManualEffort = statementAccuracy(genTexts, refTexts)
	if res.Accurate {
		// The paper counts every statement of an accurate function as
		// accurate.
		res.AccurateStatements = res.RefStatements
		res.ManualEffort = 0
	}

	res.ErrV, res.ErrCS, res.ErrDef = classifyErrors(f, genTexts, refTexts, res.Accurate)
	if ft != nil && res.Accurate {
		res.MultiSource = multiSource(f, ft)
	}
	return res
}

// canonicalStatements renders a function's statements in canonical token
// form (the comparison space used throughout evaluation).
func canonicalStatements(fn *cpp.Node) []string {
	var out []string
	for _, s := range cpp.SplitFunction(fn) {
		toks, err := cpp.Lex(s.Text)
		if err != nil {
			out = append(out, s.Text)
			continue
		}
		out = append(out, template.JoinTokens(cpp.TokenTexts(toks)))
	}
	return out
}

// keptTexts collects the canonical texts of the statements VEGA kept.
func keptTexts(f *generate.Function) []string {
	var out []string
	for _, s := range f.Statements {
		if !s.Kept() {
			continue
		}
		toks, err := cpp.Lex(s.Text)
		if err != nil {
			out = append(out, s.Text)
			continue
		}
		out = append(out, template.JoinTokens(cpp.TokenTexts(toks)))
	}
	return out
}

// statementAccuracy aligns generated against reference statements and
// counts exact matches; the rest of the reference is manual effort.
func statementAccuracy(gen, ref []string) (accurate, manual int) {
	tg := tokenize(gen)
	tr := tokenize(ref)
	pairs := gumtree.AlignTokenized(tg, tr, gumtree.AlignOptions{MinSim: 0.3})
	matched := 0
	for _, p := range pairs {
		if p.A >= 0 && p.B >= 0 && gen[p.A] == ref[p.B] {
			matched++
		}
	}
	return matched, len(ref) - matched
}

func tokenize(lines []string) [][]string {
	out := make([][]string, len(lines))
	for i, l := range lines {
		toks, err := cpp.Lex(l)
		if err != nil {
			out[i] = []string{l}
			continue
		}
		out[i] = cpp.TokenTexts(toks)
	}
	return out
}

// classifyErrors derives the paper's three error types for an inaccurate
// function: wrong target-specific values (Err-V), contradicting confidence
// scores (Err-CS), and deficient statements (Err-Def).
func classifyErrors(f *generate.Function, gen, ref []string, accurate bool) (errV, errCS, errDef bool) {
	if accurate {
		return false, false, false
	}
	tg := tokenize(gen)
	tr := tokenize(ref)
	pairs := gumtree.AlignTokenized(tg, tr, gumtree.AlignOptions{MinSim: 0.3})
	matchedRef := map[int]bool{}
	for _, p := range pairs {
		if p.A < 0 || p.B < 0 {
			continue
		}
		matchedRef[p.B] = true
		if gen[p.A] == ref[p.B] {
			continue
		}
		// Same shape, different tokens => wrong value.
		if len(tg[p.A]) == len(tr[p.B]) {
			same := 0
			for i := range tg[p.A] {
				if tg[p.A][i] == tr[p.B][i] {
					same++
				}
			}
			if same*3 >= len(tg[p.A])*2 {
				errV = true
				continue
			}
		}
		errDef = true
	}
	for i := range ref {
		if !matchedRef[i] {
			errDef = true
		}
	}
	// Confidence contradictions: a dropped statement whose text matches a
	// reference statement (should have been kept), or a kept statement
	// matching nothing (confidence said correct, it was not).
	refSet := map[string]bool{}
	for _, r := range ref {
		refSet[r] = true
	}
	for _, s := range f.Statements {
		if s.Absent || s.Text == "" {
			continue
		}
		canonical := s.Text
		if toks, err := cpp.Lex(s.Text); err == nil {
			canonical = template.JoinTokens(cpp.TokenTexts(toks))
		}
		inRef := refSet[canonical]
		if s.Kept() && !inRef {
			errCS = true
		}
		if !s.Kept() && inRef {
			errCS = true
		}
	}
	return errV, errCS, errDef
}

// multiSource reports whether the function's kept statements draw on at
// least two distinct training targets where the training targets disagree
// (the paper's "synthesized from the statements of various targets").
func multiSource(f *generate.Function, ft *template.FunctionTemplate) bool {
	sources := map[string]bool{}
	for _, s := range f.Statements {
		if !s.Kept() || s.Row >= len(ft.Rows) {
			continue
		}
		row := ft.Rows[s.Row]
		distinct := map[string]bool{}
		for _, toks := range row.PerTarget {
			distinct[template.JoinTokens(toks)] = true
		}
		if len(distinct) < 2 {
			continue // all training targets agree; no attribution signal
		}
		canonical := s.Text
		if toks, err := cpp.Lex(s.Text); err == nil {
			canonical = template.JoinTokens(cpp.TokenTexts(toks))
		}
		for tgt, toks := range row.PerTarget {
			if template.JoinTokens(toks) == canonical {
				sources[tgt] = true
			}
		}
	}
	return len(sources) >= 2
}
