// Generate a complete RISC-V backend from its target description files
// and score it with the pass@1 regression harness, module by module —
// the headline experiment of the paper at example scale.
//
//	go run ./examples/generate-riscv
package main

import (
	"fmt"
	"log"
	"time"

	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/eval"
	"vega/internal/template"
)

func main() {
	start := time.Now()
	c := corpus.NewStream(corpus.Targets())
	cfg := core.DefaultConfig()
	cfg.Train.Epochs = 14
	cfg.Train.Verbose = func(e int, l float64) {
		fmt.Printf("  epoch %2d  loss %.4f\n", e, l)
	}
	p, err := core.NewFromProvider(c, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := p.Train(); err != nil {
		log.Fatal(err)
	}

	backend := p.GenerateBackend("RISCV")
	fmt.Printf("\n%s in %s\n", core.Describe(backend), time.Since(start).Round(time.Second))
	for _, m := range corpus.Modules {
		if sec, ok := backend.Seconds[string(m)]; ok {
			fmt.Printf("  %-3s generated in %.1fs\n", m, sec)
		}
	}

	templates := map[string]*template.FunctionTemplate{}
	for _, g := range p.Groups {
		templates[g.Func.Name] = g.FT
	}
	ref, err := p.ReferenceBackend("RISCV")
	if err != nil {
		log.Fatal(err)
	}
	be := eval.EvaluateBackend(backend, ref, templates)
	tot := be.Totals()
	fmt.Printf("\npass@1 against the reference backend:\n")
	fmt.Printf("  functions:  %d/%d accurate (%.1f%%)\n",
		tot.Accurate, tot.Funcs, 100*tot.FunctionAccuracy())
	fmt.Printf("  statements: %d/%d accurate (%.1f%%), %d need manual effort\n",
		tot.AccurateStatements, tot.RefStatements, 100*tot.StatementAccuracy(), tot.ManualEffort)
	for _, m := range be.ByModule() {
		fmt.Printf("  %-3s  %d/%d functions, %.0f%% statements\n",
			m.Module, m.Accurate, m.Funcs, 100*m.StatementAccuracy())
	}
	errV, errCS, errDef := be.ErrorShare()
	fmt.Printf("  error types: Err-V %.0f%%  Err-CS %.0f%%  Err-Def %.0f%%\n",
		100*errV, 100*errCS, 100*errDef)
	fmt.Printf("  estimated correction effort: %.1f hours (developer A's rate)\n",
		eval.DeveloperA.TotalHours(be.ByModule()))
}
