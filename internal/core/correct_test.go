package core

import (
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
	funcs, kept := Correct(gen, be, ref)
	if kept != 1 {
		t.Errorf("kept = %d, want 1 (the generated getStackAlignment)", kept)
	}
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
