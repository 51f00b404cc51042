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

	// Correct the backend: keep accurate generated functions, substitute
	// the base compiler's implementation for the inaccurate ones.
	be, err := p.Evaluate(gen)
	if err != nil {
		log.Fatal(err)
	}
	cb := core.Correct(gen, be)
	corrected := cb.Funcs(ref)
	fmt.Printf("corrected backend: %d/%d functions straight from VEGA\n", len(cb.Sources), len(corrected))

	// Extract codegen tables by running the corrected backend's functions.
	vegaTables, err := compiler.TablesFromBackend(ref.Target, corrected, eval.NewUniverse(ref).Env(0))
	if err != nil {
		log.Fatal(err)
	}
	baseTables, err := compiler.TablesFromBackend(ref.Target, ref.Funcs, eval.NewUniverse(ref).Env(0))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-14s  %12s  %12s  %8s %8s\n", "benchmark", "base cycles", "vega cycles", "base x", "vega x")
	suite := bench.PULPLike()[:8]
	for _, w := range suite {
		b0, err := sim.RunProgram(w.Program, baseTables, 0, w.Entry, w.Args...)
		if err != nil {
			log.Fatal(err)
		}
		b3, err := sim.RunProgram(w.Program, baseTables, 3, w.Entry, w.Args...)
		if err != nil {
			log.Fatal(err)
		}
		v3, err := sim.RunProgram(w.Program, vegaTables, 3, w.Entry, w.Args...)
		if err != nil {
			log.Fatal(err)
		}
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
