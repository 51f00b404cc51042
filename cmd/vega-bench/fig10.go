package main

import (
	"fmt"
	"math"

	"vega/internal/bench"
	"vega/internal/compiler"
	"vega/internal/cpp"
	"vega/internal/eval"
	"vega/internal/sim"
)

// runFig10 regenerates the backend-performance figure: for each target,
// compile its suite with the base compiler and with the corrected
// VEGA-generated backend, at -O0 and -O3, and report speedups. The paper's
// claim — the corrected backend matches the base compiler — shows up as
// identical cycle counts.
func runFig10(h *harness) {
	header("Fig. 10: backend performance (speedup -O3 over -O0)")
	for _, tgt := range evalTargetNames() {
		ref := h.ref(tgt)
		spec := ref.Target

		// Correct the generated backend: accurate functions from VEGA,
		// the base compiler's for the rest (§4.3's methodology).
		be := h.evalOf(tgt)
		gen := h.backend(tgt)
		corrected := map[string]*cpp.Node{}
		fromVega := 0
		for _, r := range be.Results {
			fn := ref.Funcs[r.Name]
			if r.Accurate && r.Emitted {
				if gf := gen.Function(r.Name); gf != nil {
					if parsed, err := gf.Parse(); err == nil {
						cpp.Normalize(parsed)
						fn = parsed
						fromVega++
					}
				}
			}
			if fn != nil {
				corrected[r.Name] = fn
			}
		}

		// Both compilers interrogate their backend's interface functions:
		// the base compiler the reference implementations, the VEGA
		// compiler the corrected generated ones.
		u := eval.NewUniverse(ref)
		vegaTables, err := compiler.TablesFromBackend(spec, corrected, u.Env(0))
		check(err)
		baseTables, err := compiler.TablesFromBackend(spec, ref.Funcs, eval.NewUniverse(ref).Env(0))
		check(err)

		suite := bench.SuiteFor(tgt)
		fmt.Printf("\n%s (%d benchmarks, %d/%d functions straight from VEGA):\n",
			paperName(tgt), len(suite), fromVega, len(corrected))
		fmt.Printf("  %-18s %10s %10s %9s %9s\n", "benchmark", "O0 cycles", "O3 cycles", "base", "VEGA")
		shown := 0
		var geoBase, geoVega float64 = 1, 1
		matched := true
		for _, w := range suite {
			b0 := mustRun(w, baseTables, 0)
			b3 := mustRun(w, baseTables, 3)
			v3 := mustRun(w, vegaTables, 3)
			v0 := mustRun(w, vegaTables, 0)
			if b3.Return != v3.Return || b0.Return != b3.Return {
				fmt.Printf("  %-18s FUNCTIONAL MISMATCH\n", w.Name)
				matched = false
				continue
			}
			sb := float64(b0.Cycles) / float64(b3.Cycles)
			sv := float64(v0.Cycles) / float64(v3.Cycles)
			geoBase *= sb
			geoVega *= sv
			if shown < 6 || shown == len(suite)-1 {
				fmt.Printf("  %-18s %10d %10d %8.2fx %8.2fx\n", w.Name, b0.Cycles, b3.Cycles, sb, sv)
			} else if shown == 6 {
				fmt.Printf("  %-18s\n", "...")
			}
			shown++
		}
		n := float64(len(suite))
		fmt.Printf("  geomean speedup: base %.2fx, corrected VEGA %.2fx", pow(geoBase, 1/n), pow(geoVega, 1/n))
		if matched {
			fmt.Printf("  (all results functionally identical)")
		}
		fmt.Println()
	}
	fmt.Println("\n(paper: the VEGA compilers' -O3/-O0 speedups track their base compilers)")
}

func mustRun(w bench.Workload, tb *compiler.Tables, opt int) sim.Result {
	obj, err := compiler.Compile(w.Program, tb, opt)
	check(err)
	vm, err := sim.New(obj, tb, sim.DefaultConfig())
	check(err)
	res, err := vm.Run(w.Entry, w.Args...)
	check(err)
	return res
}

func pow(x, e float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, e)
}
