// Confidence-guided review: VEGA annotates every generated function and
// statement with a confidence score so developers start with the code
// most likely to need them (paper §4.2, "Manual Effort Required for
// VEGA"). This example generates the RI5CY backend, sorts functions by
// confidence, and checks how well confidence predicts pass@1 correctness.
//
//	go run ./examples/confidence-review
package main

import (
	"fmt"
	"log"
	"sort"

	"vega/internal/core"
	"vega/internal/corpus"
)

func main() {
	c := corpus.NewStream(corpus.Targets())
	cfg := core.DefaultConfig()
	cfg.Train.Epochs = 10
	p, err := core.NewFromProvider(c, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training CodeBE...")
	if _, err := p.Train(); err != nil {
		log.Fatal(err)
	}

	backend := p.GenerateBackend("RI5CY")
	be, err := p.Evaluate(backend)
	if err != nil {
		log.Fatal(err)
	}

	accurate := map[string]bool{}
	for _, r := range be.Results {
		accurate[r.Name] = r.Accurate
	}

	type row struct {
		name   string
		module string
		conf   float64
		minSt  float64
		ok     bool
	}
	var rows []row
	for _, f := range backend.Functions {
		minSt := 1.0
		for _, s := range f.Statements {
			if !s.Absent && s.Score < minSt {
				minSt = s.Score
			}
		}
		rows = append(rows, row{
			name: f.Name, module: f.Module,
			conf: f.Confidence(), minSt: minSt, ok: accurate[f.Name],
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].conf < rows[j].conf })

	fmt.Println("\nreview queue (lowest confidence first):")
	fmt.Println("  conf  min-stmt  pass@1  function")
	for _, r := range rows {
		mark := "FAIL"
		if r.ok {
			mark = "ok  "
		}
		fmt.Printf("  %.2f    %.2f     %s   %-3s %s\n", r.conf, r.minSt, mark, r.module, r.name)
	}

	// How informative is the confidence signal? Compare accuracy above and
	// below the paper's 0.5 threshold using the minimum statement score.
	var loOK, loAll, hiOK, hiAll int
	for _, r := range rows {
		if r.minSt < 0.5 {
			loAll++
			if r.ok {
				loOK++
			}
		} else {
			hiAll++
			if r.ok {
				hiOK++
			}
		}
	}
	fmt.Printf("\nfunctions with a sub-threshold statement: %d/%d accurate\n", loOK, loAll)
	fmt.Printf("functions fully above threshold:          %d/%d accurate\n", hiOK, hiAll)
	fmt.Println("\nreviewers work top-down through this queue; the paper's developers")
	fmt.Println("corrected a full RISC-V backend in ~43-48 hours this way (Table 4).")
}
