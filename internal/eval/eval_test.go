package eval

import (
	"slices"
	"testing"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/forkflow"
	"vega/internal/generate"
	"vega/internal/template"
)

func buildCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// selfBackend wraps a reference backend as if VEGA had generated it
// perfectly.
func selfBackend(b *corpus.Backend) *generate.Backend {
	out := &generate.Backend{Target: b.Target.Name, Seconds: map[string]float64{}}
	for _, ifn := range corpus.AllFuncs() {
		fn, ok := b.Funcs[ifn.Name]
		if !ok {
			continue
		}
		gf := &generate.Function{Name: ifn.Name, Module: string(ifn.Module), Target: b.Target.Name}
		for i, st := range cpp.SplitFunction(fn) {
			gf.Statements = append(gf.Statements, generate.Statement{Row: i, Text: st.Text, Score: 1})
		}
		out.Functions = append(out.Functions, gf)
	}
	return out
}

// A statement's canonical text is its shared-rule tokens re-joined: text
// that lexes is respaced canonically, text that does not comes back
// unchanged as one opaque token.
func TestCanonicalTextUsesStatementTokens(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"return  ELF :: R_ARM_NONE ;", "return ELF::R_ARM_NONE;"},
		{`Name = "unterminated;`, `Name = "unterminated;`},
		{"case 'x:", "case 'x:"},
		{"x = 1; /* open", "x = 1; /* open"},
		{"", ""},
	} {
		var s Statements
		s.Add(tc.in)
		toks := cpp.StatementTokens(tc.in)
		if got := s.Texts[0]; got != template.JoinTokens(toks) || got != tc.want {
			t.Errorf("canonical text of %q = %q, want %q (JoinTokens(StatementTokens))", tc.in, got, tc.want)
		}
		if !slices.Equal(s.Toks[0], toks) {
			t.Errorf("tokens of %q = %q, want StatementTokens %q", tc.in, s.Toks[0], toks)
		}
	}
}

func TestSelfEvaluationIsPerfect(t *testing.T) {
	c := buildCorpus(t)
	for _, ref := range c.EvalBackends() {
		be := EvaluateBackend(selfBackend(ref), ref, nil)
		tot := be.Totals()
		if tot.Accurate != tot.Funcs {
			t.Errorf("%s: self-eval %d/%d", ref.Target.Name, tot.Accurate, tot.Funcs)
			for _, r := range be.Results {
				if !r.Accurate {
					t.Logf("  inaccurate: %s (parsed=%v)", r.Name, r.Parsed)
				}
			}
		}
		if tot.AccurateStatements != tot.RefStatements || tot.ManualEffort != 0 {
			t.Errorf("%s: self statement accuracy %d/%d manual=%d",
				ref.Target.Name, tot.AccurateStatements, tot.RefStatements, tot.ManualEffort)
		}
	}
}

func TestEverySuiteCoversEveryFunction(t *testing.T) {
	for _, f := range corpus.AllFuncs() {
		if _, ok := suites[f.Name]; !ok {
			t.Errorf("no regression suite for %s", f.Name)
		}
	}
}

func TestForkFlowAccuracyIsLow(t *testing.T) {
	c := buildCorpus(t)
	for _, ref := range c.EvalBackends() {
		ff := forkflow.Fork(c, forkflow.DefaultDonor, ref.Target.Name)
		be := EvaluateBackend(ff, ref, nil)
		tot := be.Totals()
		acc := tot.FunctionAccuracy()
		if acc > 0.25 {
			t.Errorf("%s: fork-flow accuracy %.1f%% — too high, the corpus has lost its divergence", ref.Target.Name, 100*acc)
		}
		if tot.Accurate == 0 {
			t.Errorf("%s: fork-flow at zero — suspiciously broken fork", ref.Target.Name)
		}
	}
}

func TestMutatedFunctionFailsPass1(t *testing.T) {
	c := buildCorpus(t)
	ref := c.Backends["RISCV"]
	gen := selfBackend(ref)
	// Corrupt one statement of getRelocType: swap a relocation value.
	f := gen.Function("getRelocType")
	for i, s := range f.Statements {
		if s.Text == "return ELF::R_RISCV_HI20;" {
			f.Statements[i].Text = "return ELF::R_RISCV_LO12;"
		}
	}
	be := EvaluateBackend(gen, ref, nil)
	for _, r := range be.Results {
		if r.Name == "getRelocType" {
			if r.Accurate {
				t.Error("mutated getRelocType must fail pass@1")
			}
			if !r.ErrV {
				t.Error("value mutation should classify as Err-V")
			}
		} else if !r.Accurate {
			t.Errorf("unrelated function %s failed", r.Name)
		}
	}
}

func TestDroppedStatementClassifiesErrDef(t *testing.T) {
	c := buildCorpus(t)
	ref := c.Backends["RISCV"]
	gen := selfBackend(ref)
	f := gen.Function("matchRegisterName")
	// Remove a whole if-block: statements 1..3 (the sp special case).
	var kept []generate.Statement
	skip := 0
	for _, s := range f.Statements {
		if s.Text == `if (Name == "sp") {` && skip == 0 {
			skip = 3
		}
		if skip > 0 {
			skip--
			continue
		}
		kept = append(kept, s)
	}
	f.Statements = kept
	be := EvaluateBackend(gen, ref, nil)
	for _, r := range be.Results {
		if r.Name != "matchRegisterName" {
			continue
		}
		if r.Accurate {
			t.Error("deficient function must fail pass@1")
		}
		if !r.ErrDef {
			t.Error("missing statements should classify as Err-Def")
		}
		if r.ManualEffort == 0 {
			t.Error("manual effort must be positive")
		}
	}
}

func TestLowConfidenceDropsStatement(t *testing.T) {
	c := buildCorpus(t)
	ref := c.Backends["RISCV"]
	gen := selfBackend(ref)
	f := gen.Function("getStackAlignment")
	f.Statements[1].Score = 0.2 // the return statement
	be := EvaluateBackend(gen, ref, nil)
	for _, r := range be.Results {
		if r.Name == "getStackAlignment" {
			if r.Accurate {
				t.Error("function with dropped body must fail")
			}
			if !r.ErrCS {
				t.Error("correct-but-dropped statement should classify as Err-CS")
			}
		}
	}
}

func TestOutcomeEquality(t *testing.T) {
	a := Outcome{Ret: "1", Effects: []string{"x"}}
	if !a.Equal(Outcome{Ret: "1", Effects: []string{"x"}}) {
		t.Error("equal outcomes compare unequal")
	}
	if a.Equal(Outcome{Ret: "2", Effects: []string{"x"}}) {
		t.Error("different returns compare equal")
	}
	if a.Equal(Outcome{Ret: "1", Effects: []string{"y"}}) {
		t.Error("different effects compare equal")
	}
	if a.Equal(Outcome{Ret: "1", Effects: []string{"x"}, Fatal: true}) {
		t.Error("fatal flag ignored")
	}
}

func TestEffortModelCalibration(t *testing.T) {
	mods := []ModuleStats{{Module: "SEL", ManualEffort: 7223}}
	hours := DeveloperA.Hours(mods)
	if h := hours["SEL"]; h < 42 || h > 43 {
		t.Errorf("calibration off: %f hours for the paper's RISC-V workload", h)
	}
	if DeveloperB.TotalHours(mods) <= DeveloperA.TotalHours(mods) {
		t.Error("developer B should be slower than A")
	}
}

func TestModuleAggregation(t *testing.T) {
	c := buildCorpus(t)
	ref := c.Backends["XCore"]
	be := EvaluateBackend(selfBackend(ref), ref, nil)
	mods := be.ByModule()
	for _, m := range mods {
		if m.Module == "DIS" {
			t.Error("XCore must not report a DIS module")
		}
	}
	if len(mods) != 6 {
		t.Errorf("XCore modules = %d, want 6", len(mods))
	}
	if be.ModuleAverageAccuracy() != 1 {
		t.Errorf("self module-average = %f", be.ModuleAverageAccuracy())
	}
}
