package core

import (
	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/eval"
	"vega/internal/generate"
)

// Correct builds the corrected backend of the paper's §4.3 robustness
// methodology over ref: each generated function that passes pass@1 (be's
// verdicts) and parses is kept as its normalized parse, and every other
// function of the generated backend that ref implements is ref's own
// node. kept counts the generated functions kept.
func Correct(gen *generate.Backend, be *eval.BackendEval, ref *corpus.Backend) (funcs map[string]*cpp.Node, kept int) {
	funcs = map[string]*cpp.Node{}
	for _, r := range be.Results {
		fn := ref.Funcs[r.Name]
		if f := gen.Function(r.Name); r.Accurate && f != nil && f.Generated() {
			if parsed, err := f.Parse(); err == nil {
				fn = cpp.Normalize(parsed)
				kept++
			}
		}
		if fn != nil {
			funcs[r.Name] = fn
		}
	}
	return funcs, kept
}
