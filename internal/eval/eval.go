package eval

import (
	"errors"
	"fmt"
	"iter"
	"maps"

	"vega/internal/align"
	"vega/internal/cpp"
	"vega/internal/generate"
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

// CaseResult is one regression case run over both implementations.
type CaseResult struct {
	Got, Want Outcome
	// Pass is the pass@1 rule for one case: the generated function raised
	// no runtime error (even where the reference does) and its outcome
	// equals the reference's.
	Pass bool
}

// Compare runs an interface function's regression suite over the
// generated and the reference implementation and yields each case with
// its result, in suite order. It is the one comparison behind pass@1 and
// repair's verdict; a suite with no cases yields nothing.
func (u *Universe) Compare(name string, gen, ref *cpp.Node) iter.Seq2[Case, CaseResult] {
	return func(yield func(Case, CaseResult) bool) {
		for _, c := range Suite(name, u) {
			got := u.RunCase(gen, c)
			want := u.RunCase(ref, c)
			if !yield(c, CaseResult{Got: got, Want: want, Pass: !got.Err && got.Equal(want)}) {
				return
			}
		}
	}
}

// functionPasses is the pass@1 verdict: every case of the function's
// suite passes. It stops at the first failing case, and a suite with no
// cases counts the function inaccurate.
func (u *Universe) functionPasses(name string, gen, ref *cpp.Node) bool {
	ran := false
	for _, r := range u.Compare(name, gen, ref) {
		if !r.Pass {
			return false
		}
		ran = true
	}
	return ran
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

	var want Statements
	if ref != nil {
		want = FunctionStatements(ref)
		res.RefStatements = len(want.Texts)
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
		res.Accurate = u.functionPasses(f.Name, genFn, ref)
	}

	if res.Accurate {
		// The paper counts every statement of an accurate function as
		// accurate.
		res.AccurateStatements = res.RefStatements
		if ft != nil {
			res.MultiSource = multiSource(f, ft)
		}
		return res
	}

	// Statement-level alignment for Fig. 9 / Table 3 and the taxonomy.
	gen, dropped := emitted(f)
	pairs := align.AlignTokenized(gen.Toks, want.Toks, AlignMinSim)
	res.AccurateStatements, res.ManualEffort = statementAccuracy(pairs, gen, want)
	res.ErrV, res.ErrCS, res.ErrDef = classifyErrors(pairs, gen, dropped, want)
	return res
}

// AlignMinSim is the token similarity at or above which evaluation and
// repair align a generated statement with a reference statement.
const AlignMinSim = 0.3

// Statements is a statement sequence in the comparison space of
// evaluation and repair: each statement's tokens under the shared
// tokenization rule (cpp.StatementTokens) and their canonical re-join.
// Text that does not lex is one opaque token, so its canonical text is
// the text unchanged.
type Statements struct {
	Texts []string
	Toks  [][]string
}

// Add lexes one statement text into the sequence.
func (s *Statements) Add(text string) {
	toks := cpp.StatementTokens(text)
	s.Texts = append(s.Texts, template.JoinTokens(toks))
	s.Toks = append(s.Toks, toks)
}

// FunctionStatements puts a parsed function's statements into the
// comparison space.
func FunctionStatements(fn *cpp.Node) Statements {
	var s Statements
	for _, st := range cpp.SplitFunction(fn) {
		s.Add(st.Text)
	}
	return s
}

// emitted puts the statements VEGA emitted into the comparison space:
// kept holds the ones that survived the confidence filter, in order, and
// dropped the present ones it filtered out.
func emitted(f *generate.Function) (kept, dropped Statements) {
	for _, s := range f.Statements {
		switch {
		case s.Kept():
			kept.Add(s.Text)
		case !s.Absent && s.Text != "":
			dropped.Add(s.Text)
		}
	}
	return kept, dropped
}

// statementAccuracy counts the aligned statement pairs that match
// exactly; the rest of the reference is manual effort.
func statementAccuracy(pairs []align.AlignPair, gen, ref Statements) (accurate, manual int) {
	matched := 0
	for _, p := range pairs {
		if p.A >= 0 && p.B >= 0 && gen.Texts[p.A] == ref.Texts[p.B] {
			matched++
		}
	}
	return matched, len(ref.Texts) - matched
}

// classifyErrors derives the paper's three error types for an inaccurate
// function from its kept and dropped statements: wrong target-specific
// values (Err-V), contradicting confidence scores (Err-CS), and deficient
// statements (Err-Def).
func classifyErrors(pairs []align.AlignPair, gen, dropped, ref Statements) (errV, errCS, errDef bool) {
	tg, tr := gen.Toks, ref.Toks
	matchedRef := map[int]bool{}
	for _, p := range pairs {
		if p.A < 0 || p.B < 0 {
			continue
		}
		matchedRef[p.B] = true
		if gen.Texts[p.A] == ref.Texts[p.B] {
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
	for i := range ref.Texts {
		if !matchedRef[i] {
			errDef = true
		}
	}
	// Confidence contradictions: a kept statement matching nothing
	// (confidence said correct, it was not), or a dropped statement whose
	// text matches a reference statement (should have been kept).
	refSet := map[string]bool{}
	for _, r := range ref.Texts {
		refSet[r] = true
	}
	for _, t := range gen.Texts {
		if !refSet[t] {
			errCS = true
		}
	}
	for _, t := range dropped.Texts {
		if refSet[t] {
			errCS = true
		}
	}
	return errV, errCS, errDef
}

// multiSource reports whether the function's kept statements draw
// on at least two distinct training targets where the training targets
// disagree (the paper's "synthesized from the statements of various
// targets").
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
		// Lexed here, not up front: only accurate functions get here, and
		// they build no Statements.
		canonical := template.JoinTokens(cpp.StatementTokens(s.Text))
		for tgt, toks := range row.PerTarget {
			if template.JoinTokens(toks) == canonical {
				sources[tgt] = true
			}
		}
	}
	return len(sources) >= 2
}
