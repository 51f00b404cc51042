package core

import (
	"slices"
	"testing"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/generate"
)

// generatedFrom builds a "generated" function whose statements are the
// reference implementation's.
func generatedFrom(t *testing.T, ref *corpus.Backend, name string) *generate.Function {
	t.Helper()
	fn, ok := ref.Funcs[name]
	if !ok {
		t.Fatalf("%s does not implement %s", ref.Target.Name, name)
	}
	gf := &generate.Function{Name: name, Target: ref.Target.Name}
	for i, s := range cpp.SplitFunction(fn) {
		gf.Statements = append(gf.Statements, generate.Statement{Row: i, Text: s.Text, Score: 1})
	}
	return gf
}

func TestCorrectKeepsAccurateGenerated(t *testing.T) {
	ref, err := testCorpus(t).ReferenceBackend("RISCV")
	if err != nil {
		t.Fatal(err)
	}
	gf := generatedFrom(t, ref, "getStackAlignment")
	gen := &generate.Backend{Target: "RISCV", Functions: []*generate.Function{gf}}
	cb := Correct(gen, map[string]bool{"getStackAlignment": true})
	if len(cb.Sources) != 1 || cb.Sources["getStackAlignment"] != gf.Render() {
		t.Fatalf("corrected backend keeps %v, want the generated getStackAlignment", cb.Sources)
	}
	// The inaccurate map gate: mark it inaccurate and the reference wins.
	if cb2 := Correct(gen, map[string]bool{}); len(cb2.Sources) != 0 {
		t.Error("inaccurate generated function must be replaced by the reference")
	}
}

func TestAdoptBackendGrowsTrainingFleet(t *testing.T) {
	c := testCorpus(t)
	base, err := NewFromProvider(c, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.ReferenceBackend("RISCV")
	if err != nil {
		t.Fatal(err)
	}
	kept := generatedFrom(t, ref, "getStackAlignment").Render()
	cb := &CorrectedBackend{Target: "RISCV", Sources: map[string]string{"getStackAlignment": kept}}
	adopted, err := AdoptBackend(c, cb, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(corpus.TrainingSpecs(adopted.Provider)), len(corpus.TrainingSpecs(base.Provider))+1; got != want {
		t.Fatalf("training fleet = %d, want %d", got, want)
	}
	// RISCV's implementations now participate in the function groups.
	if g := adopted.GroupByName("getRelocType"); !slices.Contains(g.Targets, "RISCV") {
		t.Error("adopted target missing from function groups")
	}
	// The corrected function enters as its kept text.
	fn, _ := corpus.FuncByName("getStackAlignment")
	gs := adopted.Provider.GroupSource(fn)
	if i := slices.Index(gs.Targets, "RISCV"); i < 0 || gs.Sources[i] != kept {
		t.Error("adopted group does not carry the corrected source")
	}
	// The original fleet must be untouched.
	if !corpus.FindSpec(c, "RISCV").Eval {
		t.Error("AdoptBackend mutated the source corpus")
	}
}

func TestAdoptBackendUnknownTarget(t *testing.T) {
	c := testCorpus(t)
	if _, err := AdoptBackend(c, &CorrectedBackend{Target: "Z80"}, tinyConfig()); err == nil {
		t.Error("expected error for unknown target")
	}
}
