package core

import (
	"testing"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/generate"
)

func TestCorrectKeepsAccurateGenerated(t *testing.T) {
	c := testCorpus(t)
	ref := c.Backends["RISCV"]
	gen := &generate.Backend{Target: "RISCV"}
	// One "generated" function, textually identical to the reference.
	var sts []generate.Statement
	for i, s := range cpp.SplitFunction(ref.Funcs["getStackAlignment"]) {
		sts = append(sts, generate.Statement{Row: i, Text: s.Text, Score: 1})
	}
	gen.Functions = append(gen.Functions, &generate.Function{
		Name: "getStackAlignment", Module: "REG", Target: "RISCV", Statements: sts,
	})
	cb := Correct(gen, ref, map[string]bool{"getStackAlignment": true})
	if len(cb.Funcs) != len(ref.Funcs) {
		t.Fatalf("corrected backend has %d functions, reference %d", len(cb.Funcs), len(ref.Funcs))
	}
	// The inaccurate map gate: mark it inaccurate and the reference wins.
	cb2 := Correct(gen, ref, map[string]bool{})
	if cb2.Funcs["getStackAlignment"] != ref.Funcs["getStackAlignment"] {
		t.Error("inaccurate generated function must be replaced by the reference")
	}
}

func TestAdoptBackendGrowsTrainingFleet(t *testing.T) {
	c := testCorpus(t)
	base, err := New(c, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cb := &CorrectedBackend{Target: "RISCV", Funcs: c.Backends["RISCV"].Funcs}
	adopted, err := AdoptBackend(c, cb, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(corpus.TrainingSpecs(adopted.Provider)), len(corpus.TrainingSpecs(base.Provider))+1; got != want {
		t.Fatalf("training fleet = %d, want %d", got, want)
	}
	// RISCV's implementations now participate in the function groups.
	g := adopted.GroupByName("getRelocType")
	var found bool
	for _, tgt := range g.Targets {
		if tgt == "RISCV" {
			found = true
		}
	}
	if !found {
		t.Error("adopted target missing from function groups")
	}
	// The original corpus must be untouched.
	var evalStill bool
	for _, tb := range c.EvalBackends() {
		if tb.Target.Name == "RISCV" {
			evalStill = true
		}
	}
	if !evalStill {
		t.Error("AdoptBackend mutated the source corpus")
	}
}

func TestAdoptBackendUnknownTarget(t *testing.T) {
	c := testCorpus(t)
	if _, err := AdoptBackend(c, &CorrectedBackend{Target: "Z80"}, tinyConfig()); err == nil {
		t.Error("expected error for unknown target")
	}
}
