package core

import (
	"fmt"

	"vega/internal/corpus"
	"vega/internal/generate"
)

// The paper's §6 proposes "a software update mechanism to enhance
// [VEGA's] inferential accuracy by learning from newly synthesized
// function templates": once a generated backend has been corrected by
// developers, it becomes one more training backend. AdoptBackend
// implements that loop: fold a corrected backend into the corpus and
// rebuild the pipeline, ready for another Train().

// CorrectedBackend is a generated backend after correction. Sources maps
// interface-function name to the source text of each generated function
// kept in place of its reference; every other function the target
// implements comes from its reference implementation.
type CorrectedBackend struct {
	Target  string
	Sources map[string]string
}

// Correct keeps the accurate, parseable functions of a generated backend;
// everything else comes from the reference (the paper's §4.3 robustness
// methodology). accurate maps interface-function names to their pass@1
// verdicts.
func Correct(gen *generate.Backend, accurate map[string]bool) *CorrectedBackend {
	out := &CorrectedBackend{Target: gen.Target, Sources: map[string]string{}}
	for _, f := range gen.Functions {
		if !accurate[f.Name] || !f.Generated() {
			continue
		}
		if _, err := f.Parse(); err != nil {
			continue
		}
		out.Sources[f.Name] = f.Render()
	}
	return out
}

// AdoptBackend adds a corrected backend to the provider's fleet as a
// training backend and rebuilds the pipeline's Stage 1 state. The caller
// re-runs Train() to let the model learn from the new target — the
// paper's update mechanism. The adopted target's spec must already exist
// in the fleet (its description files do: they were the generation
// input). The fleet is streamed afresh with that spec flipped to
// training, and each kept function whose text differs from the reference
// rendering overrides it.
func AdoptBackend(pr corpus.Provider, cb *CorrectedBackend, cfg Config) (*Pipeline, error) {
	spec := corpus.FindSpec(pr, cb.Target)
	if spec == nil {
		return nil, fmt.Errorf("core: unknown target %q", cb.Target)
	}
	adopted := *spec
	adopted.Eval = false
	var specs []*corpus.TargetSpec
	for t := range pr.TargetSpecs() {
		if t == spec {
			t = &adopted
		}
		specs = append(specs, t)
	}
	var out corpus.Provider = corpus.NewStream(specs)
	for _, fn := range corpus.AllFuncs() {
		src, ok := cb.Sources[fn.Name]
		if !ok || src == fn.Gen(&adopted) {
			continue
		}
		out = &corpus.Override{Provider: out, FuncName: fn.Name, Target: cb.Target, Source: src}
	}
	return NewFromProvider(out, cfg)
}
