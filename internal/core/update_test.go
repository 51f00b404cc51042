package core

import (
	"slices"
	"testing"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/eval"
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
	wrong := generatedFrom(t, ref, "getRelocType")
	broken := &generate.Function{Name: "getFrameRegister", Target: "RISCV", Statements: []generate.Statement{
		{Text: "Register RISCVRegisterInfo::getFrameRegister(const MachineFunction &MF) const {", Score: 1},
		{Row: 1, Text: "return (;", Score: 1},
		{Row: 2, Text: "}", Score: 1},
	}}
	if _, err := broken.Parse(); err == nil {
		t.Fatal("broken getFrameRegister parses")
	}
	const absent = "getCalleeSavedRegs"
	if ref.Funcs[absent] == nil {
		t.Fatalf("RISCV does not implement %s", absent)
	}
	gen := &generate.Backend{Target: "RISCV", Functions: []*generate.Function{gf, wrong, broken}}
	be := &eval.BackendEval{Target: "RISCV", Results: []eval.FuncResult{
		{Name: "getStackAlignment", Accurate: true},
		{Name: "getRelocType", Accurate: false},
		{Name: "getFrameRegister", Accurate: true},
	}}
	cb := Correct(gen, be)
	if len(cb.Sources) != 1 || cb.Sources["getStackAlignment"] != gf.Render() {
		t.Fatalf("corrected backend keeps %v, want the generated getStackAlignment", cb.Sources)
	}

	funcs := cb.Funcs(ref)
	if len(funcs) != 3 {
		t.Errorf("corrected functions = %d, want 3", len(funcs))
	}
	// The kept function is the normalized parse of the generated text.
	want, err := gf.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if got := funcs["getStackAlignment"]; got == ref.Funcs["getStackAlignment"] || !got.Equal(cpp.Normalize(want)) {
		t.Error("kept getStackAlignment is not the normalized parse of the generated text")
	}
	// Inaccurate, and accurate but unparseable: the reference's own node.
	for _, name := range []string{"getRelocType", "getFrameRegister"} {
		if funcs[name] != ref.Funcs[name] {
			t.Errorf("%s is not the reference implementation", name)
		}
	}
	if _, ok := funcs[absent]; ok {
		t.Errorf("%s is absent from the generated backend but present in its corrected functions", absent)
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

// Adopting through an adopted pipeline's provider keeps the first
// adoption: both targets train, and both groups carry their kept text.
func TestAdoptBackendTwiceKeepsBoth(t *testing.T) {
	c := testCorpus(t)
	kept := map[string]string{}
	adopt := func(pr corpus.Provider, target, name string) *Pipeline {
		t.Helper()
		ref, err := c.ReferenceBackend(target)
		if err != nil {
			t.Fatal(err)
		}
		fn, _ := corpus.FuncByName(name)
		src := generatedFrom(t, ref, name).Render()
		if src == fn.Gen(corpus.FindSpec(c, target)) {
			t.Fatalf("%s %s: kept text equals the reference rendering", target, name)
		}
		kept[target] = src
		p, err := AdoptBackend(pr, &CorrectedBackend{Target: target, Sources: map[string]string{name: src}}, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := adopt(c, "RISCV", "getStackAlignment")
	second := adopt(first.Provider, "RI5CY", "getFrameRegister")

	var training []string
	for _, s := range corpus.TrainingSpecs(second.Provider) {
		training = append(training, s.Name)
	}
	for _, target := range []string{"RISCV", "RI5CY"} {
		if !slices.Contains(training, target) {
			t.Errorf("%s is not a training target after both adoptions", target)
		}
	}
	// Each group lists its targets in fleet order, as a fresh stream with
	// both targets training would, and carries both kept texts.
	var specs []*corpus.TargetSpec
	for _, s := range corpus.Specs(c) {
		if s.Name == "RISCV" || s.Name == "RI5CY" {
			flipped := *s
			flipped.Eval = false
			s = &flipped
		}
		specs = append(specs, s)
	}
	fresh := corpus.NewStream(specs)
	for target, name := range map[string]string{"RISCV": "getStackAlignment", "RI5CY": "getFrameRegister"} {
		fn, _ := corpus.FuncByName(name)
		gs := second.Provider.GroupSource(fn)
		if want := fresh.GroupSource(fn).Targets; !slices.Equal(gs.Targets, want) {
			t.Errorf("%s group targets = %v, want %v", name, gs.Targets, want)
		}
		if i := slices.Index(gs.Targets, target); i < 0 || gs.Sources[i] != kept[target] {
			t.Errorf("%s group does not carry %s's kept text", name, target)
		}
	}
}

func TestAdoptBackendUnknownTarget(t *testing.T) {
	c := testCorpus(t)
	if _, err := AdoptBackend(c, &CorrectedBackend{Target: "Z80"}, tinyConfig()); err == nil {
		t.Error("expected error for unknown target")
	}
}
