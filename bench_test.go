package vega

// testing.B benchmarks for the two measurements with no other home:
// Stage 1 templatization cold, warm and with one target dirty
// (BENCH_stage1.json, `make bench-stage1`), and the verify-and-repair
// loop's plain vs verified pass@1 (BENCH_repair.json, `make
// bench-repair`). Timing of training and generation lives in perfbench
// (the finetune and retarget workloads); the paper's tables and figures
// live in `go run ./cmd/vega-bench`.

import (
	"context"
	"sync"
	"testing"

	"vega/internal/core"
	"vega/internal/corpus"
)

var (
	fixOnce sync.Once
	fix     *Pipeline
	fixErr  error
)

// trainedPipeline trains one pipeline at benchmark budget, once.
func trainedPipeline(b *testing.B) *Pipeline {
	b.Helper()
	fixOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Train.Epochs = 6
		cfg.MaxSamples = 1500
		cfg.PretrainEpochs = 1
		cfg.VerifyCap = 120
		fix, fixErr = NewPipeline(BuildCorpus(), cfg)
		if fixErr == nil {
			_, fixErr = fix.Train()
		}
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// BenchmarkStage1Templatization measures pre-processing + Stage 1 alone.
func BenchmarkStage1Templatization(b *testing.B) {
	c := BuildCorpus()
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPipeline(c, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStage1TemplatizationWarm measures Stage 1 with a populated
// artifact cache: every iteration is a content-addressed cache hit, so
// the number is the floor a repeated CLI/harness run pays for Stage 1.
func BenchmarkStage1TemplatizationWarm(b *testing.B) {
	c := BuildCorpus()
	cfg := DefaultConfig()
	cfg.Stage1Cache = b.TempDir()
	if _, err := NewPipeline(c, cfg); err != nil { // populate outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPipeline(c, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStage1TemplatizationWarmOneDirty measures the incremental
// rebuild: a populated cache where each iteration edits exactly one
// target's implementation of one function, so one group misses and
// rebuilds while every other group hits. The per-iteration edit is
// distinct (StackAlign varies), so later iterations cannot silently
// degenerate into full warm hits. It should cost well under the cold
// row.
func BenchmarkStage1TemplatizationWarmOneDirty(b *testing.B) {
	c := BuildCorpus()
	fn, ok := corpus.FuncByName("getStackAlignment")
	if !ok {
		b.Fatal("no getStackAlignment")
	}
	spec := corpus.FindTarget("ARM")
	cfg := DefaultConfig()
	cfg.Stage1Cache = b.TempDir()
	if _, err := NewPipeline(c, cfg); err != nil { // populate outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edited := *spec
		edited.StackAlign = 64 + i
		pr := &corpus.Override{Provider: c, FuncName: fn.Name, Target: "ARM", Source: fn.Gen(&edited)}
		if _, err := NewPipeline(pr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairLoop measures Stage 3 generation with the verify-and-
// repair loop on, reporting the plain vs verified pass@1 the loop buys
// and the share of initially diverging functions it recovers. Repair
// reverts failed attempts, so %verified-pass1 >= %plain-pass1 holds by
// construction; the benchmark artifact (BENCH_repair.json) records the
// measured delta.
func BenchmarkRepairLoop(b *testing.B) {
	p := trainedPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := p.GenerateBackendOptions(context.Background(), "RISCV",
			core.GenOptions{Verify: true})
		b.StopTimer()
		be, err := p.Evaluate(gen)
		if err != nil {
			b.Fatal(err)
		}
		rs := be.Repair()
		b.ReportMetric(100*rs.PlainPass1(), "%plain-pass1")
		b.ReportMetric(100*rs.VerifiedPass1(), "%verified-pass1")
		b.ReportMetric(100*rs.RepairRate(), "%repair-rate")
		b.ReportMetric(float64(gen.Repaired), "repaired")
		b.StartTimer()
	}
}
