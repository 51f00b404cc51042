package core

import (
	"fmt"
	"iter"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/eval"
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
	names   []string // the generated backend's functions
}

// Correct keeps the generated functions that pass pass@1 (be's verdicts)
// and re-parse; everything else comes from the reference (the paper's
// §4.3 robustness methodology).
func Correct(gen *generate.Backend, be *eval.BackendEval) *CorrectedBackend {
	out := &CorrectedBackend{Target: gen.Target, Sources: map[string]string{}}
	for _, r := range be.Results {
		out.names = append(out.names, r.Name)
		f := gen.Function(r.Name)
		if !r.Accurate || f == nil || !f.Generated() {
			continue
		}
		if _, err := f.Parse(); err == nil {
			out.Sources[r.Name] = f.Render()
		}
	}
	return out
}

// Funcs returns the corrected function set over ref: the normalized parse
// of each kept source, and ref's own node for every other function of the
// generated backend that ref implements.
func (cb *CorrectedBackend) Funcs(ref *corpus.Backend) map[string]*cpp.Node {
	out := map[string]*cpp.Node{}
	for _, name := range cb.names {
		fn := ref.Funcs[name]
		if src, ok := cb.Sources[name]; ok {
			if parsed, err := cpp.ParseFunction(src); err == nil {
				fn = cpp.Normalize(parsed)
			}
		}
		if fn != nil {
			out[name] = fn
		}
	}
	return out
}

// AdoptBackend adds a corrected backend to the provider's fleet as a
// training backend and rebuilds the pipeline's Stage 1 state. The caller
// re-runs Train() to let the model learn from the new target — the
// paper's update mechanism. The adopted target's spec must already exist
// in the fleet (its description files do: they were the generation
// input). The provider is decorated rather than re-streamed, so earlier
// adoptions and other decorators keep their effect.
func AdoptBackend(pr corpus.Provider, cb *CorrectedBackend, cfg Config) (*Pipeline, error) {
	spec := corpus.FindSpec(pr, cb.Target)
	if spec == nil {
		return nil, fmt.Errorf("core: unknown target %q", cb.Target)
	}
	flipped := *spec
	flipped.Eval = false
	return NewFromProvider(&adoption{Provider: pr, spec: &flipped, sources: cb.Sources}, cfg)
}

// adoption decorates a provider with one adopted target: TargetSpecs
// yields its spec flipped to training, and GroupSource places its kept
// source, or else its reference rendering, at its fleet position. The
// source tree stays the underlying one: corpus.BuildTree ignores Eval.
type adoption struct {
	corpus.Provider
	spec    *corpus.TargetSpec
	sources map[string]string
}

// TargetSpecs implements corpus.Provider.
func (a *adoption) TargetSpecs() iter.Seq[*corpus.TargetSpec] {
	return func(yield func(*corpus.TargetSpec) bool) {
		for t := range a.Provider.TargetSpecs() {
			if t.Name == a.spec.Name {
				t = a.spec
			}
			if !yield(t) {
				return
			}
		}
	}
}

// GroupSource implements corpus.Provider.
func (a *adoption) GroupSource(fn corpus.InterfaceFunc) *corpus.GroupSource {
	gs := a.Provider.GroupSource(fn)
	adopted, ok := a.sources[fn.Name]
	if !ok {
		adopted = fn.Gen(a.spec)
	}
	out := &corpus.GroupSource{Func: gs.Func}
	i := 0
	for t := range a.Provider.TargetSpecs() {
		src := ""
		if i < len(gs.Targets) && gs.Targets[i] == t.Name {
			src = gs.Sources[i]
			i++
		}
		if t.Name == a.spec.Name {
			src = adopted
		}
		if src != "" {
			out.Targets = append(out.Targets, t.Name)
			out.Sources = append(out.Sources, src)
		}
	}
	return out
}
