package vega

import (
	"testing"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/generate"
)

func TestPublicAPIStageOne(t *testing.T) {
	c := BuildCorpus()
	if n := len(corpus.Specs(c)); n < 15 {
		t.Fatalf("targets = %d", n)
	}
	p, err := NewPipeline(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) < 40 {
		t.Fatalf("groups = %d", len(p.Groups))
	}
	for _, tgt := range EvalTargets() {
		if corpus.FindTarget(tgt) == nil {
			t.Errorf("eval target %s missing from fleet", tgt)
		}
	}
}

func TestPublicEvaluate(t *testing.T) {
	c := BuildCorpus()
	p, err := NewPipeline(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate a perfect "generated" backend assembled from the reference.
	ref, err := c.ReferenceBackend("RISCV")
	if err != nil {
		t.Fatal(err)
	}
	gen := &generate.Backend{Target: "RISCV", Seconds: map[string]float64{}}
	for _, ifn := range corpus.AllFuncs() {
		fn, ok := ref.Funcs[ifn.Name]
		if !ok {
			continue
		}
		gf := &generate.Function{Name: ifn.Name, Module: string(ifn.Module), Target: "RISCV"}
		for i, st := range cpp.SplitFunction(fn) {
			gf.Statements = append(gf.Statements, generate.Statement{Row: i, Text: st.Text, Score: 1})
		}
		gen.Functions = append(gen.Functions, gf)
	}
	report, err := p.Evaluate(gen)
	if err != nil {
		t.Fatal(err)
	}
	tot := report.Totals()
	if tot.Accurate != tot.Funcs {
		t.Errorf("perfect backend scored %d/%d", tot.Accurate, tot.Funcs)
	}
}
