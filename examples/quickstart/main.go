// Quickstart: run the whole VEGA pipeline at a small training budget and
// generate one interface function — getRelocType, the paper's running
// example — for the held-out RISC-V target, printing every statement with
// its confidence score.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"vega/internal/core"
	"vega/internal/corpus"
)

func main() {
	// 1. Stream the backend corpus: 17 training targets plus 3 held-out
	//    evaluation targets. Every target's description files are rendered
	//    with LLVM naming conventions; reference implementations are
	//    rendered on demand.
	c := corpus.NewStream(corpus.Targets())
	fmt.Printf("corpus: %d targets, %d interface functions\n",
		len(corpus.Specs(c)), len(corpus.AllFuncs()))

	// 2. Stage 1 — templatize every function group and mine features.
	cfg := core.DefaultConfig()
	cfg.Train.Epochs = 4 // quickstart budget; see EXPERIMENTS.md for full runs
	cfg.MaxSamples = 1200
	cfg.PretrainEpochs = 1
	p, err := core.NewFromProvider(c, cfg)
	if err != nil {
		log.Fatal(err)
	}
	st := p.Stats()
	fmt.Printf("stage 1: %d templates, %d properties, %d training functions\n",
		st.Groups, st.Properties, st.TrainFunctions)

	// 3. Stage 2 — fine-tune CodeBE.
	fmt.Println("stage 2: fine-tuning CodeBE (a few minutes on one core)...")
	res, err := p.Train()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stage 2: %d samples, verification exact match %.1f%%\n",
		res.Samples, 100*res.VerifyExactMatch)

	// 4. Stage 3 — generate RISC-V's getRelocType from its description
	//    files alone, with per-statement confidence scores.
	g := p.GroupByName("getRelocType")
	fn := p.GenerateFunction(g, "RISCV")
	fmt.Printf("\nVEGA-generated %s for RISC-V (function confidence %.2f):\n\n",
		fn.Name, fn.Confidence())
	fmt.Println(fn.RenderAnnotated())
	fmt.Println("statements below 0.50 are dropped before the function is used;")
	fmt.Println("run ./examples/generate-riscv for the full backend and pass@1 scores.")
}
