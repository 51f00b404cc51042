// Retarget the mini compiler with a corrected VEGA backend (the paper's
// robustness methodology, §4.3): generate a backend, replace its
// inaccurate functions with the base compiler's, extract codegen tables
// by interrogating the corrected functions in the interpreter, and show
// that the resulting compiler matches the base compiler cycle for cycle
// on the PULP-like suite — including RI5CY's hardware-loop and SIMD wins.
//
//	go run ./examples/retarget-compiler
package main

import (
	"fmt"
	"log"

	"vega/internal/bench"
	"vega/internal/compiler"
	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/eval"
	"vega/internal/sim"
)

func main() {
	c := corpus.NewStream(corpus.Targets())
	cfg := core.DefaultConfig()
	cfg.Train.Epochs = 8
	p, err := core.NewFromProvider(c, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training CodeBE...")
	if _, err := p.Train(); err != nil {
		log.Fatal(err)
	}

	const target = "RI5CY"
	ref, err := p.ReferenceBackend(target)
	if err != nil {
		log.Fatal(err)
	}
	gen := p.GenerateBackend(target)
	be := eval.EvaluateBackend(gen, ref, nil)

	// Correct the backend: keep accurate generated functions, substitute
	// the base compiler's implementation for the inaccurate ones.
	corrected := map[string]*cpp.Node{}
	kept := 0
	for _, r := range be.Results {
		fn := ref.Funcs[r.Name]
		if r.Accurate && r.Emitted {
			if gf := gen.Function(r.Name); gf != nil {
				if parsed, err := gf.Parse(); err == nil {
					cpp.Normalize(parsed)
					fn = parsed
					kept++
				}
			}
		}
		if fn != nil {
			corrected[r.Name] = fn
		}
	}
	fmt.Printf("corrected backend: %d/%d functions straight from VEGA\n", kept, len(corrected))

	// Extract codegen tables by running the corrected backend's functions.
	spec := ref.Target
	u := eval.NewUniverse(ref)
	vegaTables, err := compiler.TablesFromBackend(spec, corrected, u.Env(0))
	if err != nil {
		log.Fatal(err)
	}
	baseTables, err := compiler.TablesFromBackend(spec, ref.Funcs, eval.NewUniverse(ref).Env(0))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-14s  %12s  %12s  %8s %8s\n", "benchmark", "base cycles", "vega cycles", "base x", "vega x")
	suite := bench.PULPLike()[:8]
	for _, w := range suite {
		b0 := run(w, baseTables, 0)
		b3 := run(w, baseTables, 3)
		v3 := run(w, vegaTables, 3)
		if b3.Return != v3.Return || b0.Return != b3.Return {
			log.Fatalf("%s: functional mismatch", w.Name)
		}
		fmt.Printf("%-14s  %12d  %12d  %7.2fx %7.2fx\n",
			w.Name, b3.Cycles, v3.Cycles,
			float64(b0.Cycles)/float64(b3.Cycles),
			float64(b0.Cycles)/float64(v3.Cycles))
	}
	fmt.Println("\nthe corrected VEGA compiler tracks the base compiler exactly —")
	fmt.Println("the paper's Fig. 10 result, regenerated in full by `vega-bench -exp fig10`.")
}

func run(w bench.Workload, tb *compiler.Tables, opt int) sim.Result {
	obj, err := compiler.Compile(w.Program, tb, opt)
	if err != nil {
		log.Fatal(err)
	}
	vm, err := sim.New(obj, tb, sim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	res, err := vm.Run(w.Entry, w.Args...)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
