// Command vega drives the VEGA pipeline end to end: it builds the backend
// corpus, templatizes function groups, mines features, fine-tunes CodeBE,
// and generates a complete compiler backend for a held-out target from its
// target description files, annotating every statement with a confidence
// score.
//
// Usage:
//
//	vega -target RISCV [-epochs 14] [-samples 2600] [-arch transformer]
//	     [-out generated/] [-seed 1] [-quiet] [-timeout 10m] [-verify]
//	     [-metrics out.jsonl] [-pprof localhost:6060]
//
// The run honors a deadline (-timeout) and Ctrl-C: a canceled training
// run reports the epochs that finished; a canceled generation run still
// writes the functions generated so far, marked partial. Fault-injection
// points for exercising these paths are armed via VEGA_FAULTS (see
// README.md).
//
// -verify closes the correctness loop: every generated function is
// executed against the held-out reference through the regression
// harness, and diverging functions get up to three rounds of
// counterexample-guided re-decoding (see DESIGN.md "Verified generation
// & repair"). The run then reports verified pass@1 beside the plain
// pass@1.
//
// Observability: -metrics streams every stage span and a final metric
// snapshot to a JSON-lines file (see DESIGN.md "Observability");
// -pprof serves net/http/pprof on the given address for live CPU/heap
// profiling of a long run.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/obs"
)

func main() {
	var (
		target    = flag.String("target", "RISCV", "held-out target to generate (RISCV, RI5CY, XCore)")
		epochs    = flag.Int("epochs", 14, "fine-tuning epochs")
		samples   = flag.Int("samples", 2600, "max deduplicated training samples")
		arch      = flag.String("arch", "transformer", "model architecture: transformer, gru, bert")
		outDir    = flag.String("out", "", "directory to write generated functions into")
		seed      = flag.Int64("seed", 1, "random seed")
		quiet     = flag.Bool("quiet", false, "suppress per-epoch logs")
		evaluap   = flag.Bool("eval", true, "run pass@1 evaluation against the reference backend")
		saveCk    = flag.String("save", "", "write a model checkpoint after training")
		loadCk    = flag.String("load", "", "load a model checkpoint instead of training")
		timeout   = flag.Duration("timeout", 0, "overall deadline for the run (0 = none)")
		s1cache   = flag.String("stage1-cache", "", "directory for the per-group content-addressed Stage 1 cache (empty = disabled)")
		fleetName = flag.String("targets", "standard", "target fleet: standard, or extended (adds the VLIW, predicated, tensor, and RISC-V-extension families)")
		metrics   = flag.String("metrics", "", "write stage spans and a metric snapshot to this JSON-lines file")
		pprofAt   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		verify    = flag.Bool("verify", false, "execute generated functions against the reference and repair divergences (CEGAR)")
	)
	flag.Parse()

	fleet, err := corpus.Fleet(*fleetName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vega:", err)
		os.Exit(2)
	}
	if corpus.FindIn(fleet, *target) == nil {
		fmt.Fprintf(os.Stderr, "vega: unknown target %q in fleet %q\n", *target, *fleetName)
		os.Exit(2)
	}

	var o *obs.Obs
	if *metrics != "" {
		sink, err := obs.NewJSONLSink(*metrics)
		check(err)
		sink.FlushEvery(2 * time.Second)
		o = obs.New(sink)
		stopFlush := o.FlushEvery(10 * time.Second)
		// check() exits through os.Exit, which skips defers — register
		// the flush/close so metrics survive error exits too.
		obsCleanup = func() {
			stopFlush()
			o.Close()
		}
		defer obsCleanup()
	}
	if *pprofAt != "" {
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*pprofAt, nil); err != nil {
				fmt.Fprintln(os.Stderr, "vega: pprof:", err)
			}
		}()
		fmt.Printf("pprof: http://%s/debug/pprof/\n", *pprofAt)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// On SIGTERM/Ctrl-C, push a metric snapshot immediately: the
		// pipeline may take a while to observe the cancellation, and the
		// operator wants the telemetry now.
		<-ctx.Done()
		o.Flush()
	}()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	// Every fleet streams: description files are rendered up front, and
	// function groups and reference backends are rendered on demand, so
	// memory stays bounded by one group at 50+ targets.
	provider := corpus.NewStream(fleet)
	fmt.Printf("corpus: %d targets (%s fleet), description files rendered, groups rendered on demand\n", len(fleet), *fleetName)

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Train.Epochs = *epochs
	cfg.MaxSamples = *samples
	cfg.Arch = *arch
	cfg.Stage1Cache = *s1cache
	cfg.Obs = o
	if !*quiet {
		cfg.Train.Verbose = func(e int, l float64) {
			fmt.Printf("  epoch %2d  loss %.4f  (%s)\n", e, l, time.Since(start).Round(time.Second))
		}
	}

	p, err := core.NewFromProvider(provider, cfg)
	check(err)
	st := p.Stats()
	fmt.Printf("stage 1: %d function groups templatized, %d properties mined, %d/%d train/verify functions\n",
		st.Groups, st.Properties, st.TrainFunctions, st.VerifyFunctions)

	if *loadCk != "" {
		check(p.Load(*loadCk))
		fmt.Printf("stage 2: loaded checkpoint %s\n", *loadCk)
	} else {
		res, err := p.TrainContext(ctx)
		if err != nil && res != nil && res.Canceled {
			fmt.Fprintf(os.Stderr, "vega: training stopped after %d epoch(s): %v\n",
				len(res.PretrainLosses)+len(res.EpochLosses), err)
			if obsCleanup != nil {
				obsCleanup()
			}
			os.Exit(1)
		}
		check(err)
		fmt.Printf("stage 2: %d samples, vocab %d, verification exact match %.1f%% (%s)\n",
			res.Samples, res.VocabSize, 100*res.VerifyExactMatch, time.Since(start).Round(time.Second))
		if res.RetriedEpochs > 0 || res.SkippedSamples > 0 {
			fmt.Printf("  resilience: %d epoch(s) retried, %d sample(s) skipped\n",
				res.RetriedEpochs, res.SkippedSamples)
		}
		if *saveCk != "" {
			check(p.Save(*saveCk))
			fmt.Printf("checkpoint written to %s\n", *saveCk)
		}
	}

	gen := p.GenerateBackendOptions(ctx, *target, core.GenOptions{Verify: *verify})
	fmt.Printf("stage 3: %s\n", core.Describe(gen))
	if gen.Partial {
		fmt.Printf("  partial: generation stopped early; %d function(s) salvaged\n", len(gen.Functions))
	}
	if gen.Recovered > 0 {
		fmt.Printf("  resilience: %d function(s) recovered from crashes (flagged at confidence 0)\n", gen.Recovered)
	}
	if *verify {
		fmt.Printf("  verify: %d passed as generated, %d repaired, %d still diverging\n",
			gen.Verified-gen.Repaired, gen.Repaired, gen.RepairFailed)
	}
	for _, m := range corpus.Modules {
		if sec, ok := gen.Seconds[string(m)]; ok {
			fmt.Printf("  %s: %.1fs\n", m, sec)
		}
	}

	if *outDir != "" {
		check(os.MkdirAll(*outDir, 0o755))
		for _, f := range gen.Functions {
			path := filepath.Join(*outDir, fmt.Sprintf("%s_%s.cpp.txt", f.Module, f.Name))
			check(os.WriteFile(path, []byte(f.RenderAnnotated()), 0o644))
		}
		fmt.Printf("wrote %d annotated functions to %s\n", len(gen.Functions), *outDir)
	}

	if *evaluap {
		be, err := p.Evaluate(gen)
		check(err)
		tot := be.Totals()
		fmt.Printf("pass@1: %d/%d functions accurate (%.1f%%), %d/%d statements (%.1f%%)\n",
			tot.Accurate, tot.Funcs, 100*tot.FunctionAccuracy(),
			tot.AccurateStatements, tot.RefStatements, 100*tot.StatementAccuracy())
		for _, m := range be.ByModule() {
			fmt.Printf("  %-3s  %d/%d accurate  (%.0f%% statements)\n",
				m.Module, m.Accurate, m.Funcs, 100*m.StatementAccuracy())
		}
		if rs := be.Repair(); *verify && rs.Attempted > 0 {
			fmt.Printf("verified pass@1: %.1f%% (plain %.1f%%), repair rate %.1f%% over %d attempted\n",
				100*rs.VerifiedPass1(), 100*rs.PlainPass1(), 100*rs.RepairRate(), rs.Attempted)
		}
	}
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Second))
}

// obsCleanup flushes and closes the metrics sink; set in main when
// -metrics is active so error exits (os.Exit skips defers) still flush.
var obsCleanup func()

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vega:", err)
		if obsCleanup != nil {
			obsCleanup()
		}
		os.Exit(1)
	}
}
