// Command vega-serve runs VEGA as a long-lived backend-generation
// service: weights and Stage 1 artifacts are loaded once into an
// immutable snapshot, then concurrent "generate a backend / a module / a
// single function for this target's .td files" requests are served
// through a bounded scheduler with admission control, per-request
// deadlines, and graceful degradation under pressure.
//
// Usage:
//
//	vega-serve [-addr :8080] [-queue 64] [-workers N] [-deadline 60s]
//	           [-load ckpt.vega | -epochs 14]
//	           [-metrics out.jsonl] [-pprof localhost:6060]
//	           [-save-on-exit ckpt.vega]
//
// Endpoints:
//
//	POST /v1/generate   {"target":"RISCV","module":"EMI","function":"getRelocType",
//	                     "max_functions":0,"deadline_ms":0,"verify":false}
//	POST /admin/reload  {"checkpoint":"path/to/new.vega"}   (health-checked cutover)
//	GET  /healthz       status, active snapshot, pressure
//	GET  /v1/targets    request vocabulary (targets, modules, functions)
//
// "verify":true additionally executes each generated function against
// the reference backend and runs counterexample-guided repair on
// divergences; every function in the response then carries "verify"
// ("passed", "repaired", "failed", or "no-oracle"), plus repair rounds
// and the final counterexample when it still fails, and the response
// totals verified/repaired/repair_failed. Under pressure >= 0.75 the
// degrade ladder keeps verification but skips repair rounds (the
// response is marked degraded with the rung's reason).
//
// Responses are 200 (optionally marked degraded), 429 + Retry-After when
// the admission queue is at its hard cap, or 504 when the per-request
// deadline expires — never an unhandled 500.
//
// SIGTERM/Ctrl-C drains in-flight requests, optionally checkpoints the
// live snapshot (-save-on-exit), and flushes/closes the metrics sink.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/obs"
	"vega/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		queueCap  = flag.Int("queue", 64, "admission queue hard cap; beyond it requests are shed with 429")
		workers   = flag.Int("workers", 2, "concurrent generation requests (worker pool size)")
		deadline  = flag.Duration("deadline", 60*time.Second, "default per-request deadline")
		maxDl     = flag.Duration("max-deadline", 5*time.Minute, "upper clamp on request-supplied deadlines")
		drain     = flag.Duration("drain", 30*time.Second, "snapshot-swap and shutdown drain timeout")
		loadCk    = flag.String("load", "", "serve this checkpoint (skips startup training)")
		saveExit  = flag.String("save-on-exit", "", "write the live snapshot's checkpoint here on shutdown")
		epochs    = flag.Int("epochs", 14, "startup fine-tuning epochs when -load is empty")
		samples   = flag.Int("samples", 2600, "max deduplicated training samples")
		seed      = flag.Int64("seed", 1, "random seed")
		arch      = flag.String("arch", "transformer", "model architecture: transformer, gru, bert")
		s1cache   = flag.String("stage1-cache", "", "directory for the per-group content-addressed Stage 1 cache")
		fleetName = flag.String("targets", "standard", "target fleet: standard, or extended (adds the VLIW, predicated, tensor, and RISC-V-extension families)")
		health    = flag.String("health-target", "RISCV", "target used for snapshot health-check smoke generations")
		metrics   = flag.String("metrics", "", "write serve spans and periodic metric snapshots to this JSON-lines file")
		pprofAt   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	var o *obs.Obs
	if *metrics != "" {
		sink, err := obs.NewJSONLSink(*metrics)
		check(err)
		sink.FlushEvery(2 * time.Second)
		o = obs.New(sink)
		stopFlush := o.FlushEvery(10 * time.Second)
		obsCleanup = func() {
			stopFlush()
			o.Close()
		}
		defer obsCleanup()
	}
	if *pprofAt != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAt, nil); err != nil {
				fmt.Fprintln(os.Stderr, "vega-serve: pprof:", err)
			}
		}()
		fmt.Printf("pprof: http://%s/debug/pprof/\n", *pprofAt)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Train.Epochs = *epochs
	cfg.MaxSamples = *samples
	cfg.Arch = *arch
	cfg.Stage1Cache = *s1cache
	cfg.Obs = o

	start := time.Now()
	fleet, err := corpus.Fleet(*fleetName)
	check(err)
	// Every fleet streams, so Stage 1 memory stays bounded by one function
	// group at 50+ targets. Every reload shares the one provider: the
	// rendered source tree and the reference backends are reused across
	// snapshots, while each rebuild renders its function groups afresh.
	provider := corpus.NewStream(fleet)

	buildPipeline := func(bctx context.Context, checkpoint string) (*core.Pipeline, error) {
		p, err := core.NewFromProvider(provider, cfg)
		if err != nil {
			return nil, err
		}
		if checkpoint != "" {
			if err := p.Load(checkpoint); err != nil {
				return nil, err
			}
			return p, nil
		}
		if _, err := p.TrainContext(bctx); err != nil {
			return nil, err
		}
		return p, nil
	}

	source := *loadCk
	if source == "" {
		fmt.Printf("vega-serve: no -load checkpoint; training at startup (%d epochs)\n", *epochs)
	}
	p, err := buildPipeline(ctx, *loadCk)
	check(err)
	if source == "" {
		source = "startup-train"
	}
	boot := serve.NewSnapshot("boot-1", source, p)
	check(boot.HealthCheck(ctx, *health))
	fmt.Printf("vega-serve: snapshot %s ready (%s) in %s\n", boot.ID, source, time.Since(start).Round(time.Second))

	srv := serve.New(serve.Config{
		Addr:            *addr,
		Workers:         *workers,
		QueueCap:        *queueCap,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDl,
		DrainTimeout:    *drain,
		Policy:          serve.DefaultDegradePolicy(),
		HealthTarget:    *health,
		Loader:          buildPipeline,
		Obs:             o,
	}, boot)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("vega-serve: listening on %s (workers %d, queue %d, deadline %s)\n",
		*addr, *workers, *queueCap, *deadline)

	select {
	case err := <-errc:
		check(err)
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "vega-serve: signal received; draining")
		o.Flush()
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			fmt.Fprintln(os.Stderr, "vega-serve: shutdown:", err)
		}
		if *saveExit != "" {
			// The drain is complete, so the snapshot is quiescent: the
			// atomic checkpoint write (temp+fsync+rename) cannot race a
			// request and a crash mid-write leaves any previous file.
			if err := srv.Snapshot().Pipeline.Save(*saveExit); err != nil {
				fmt.Fprintln(os.Stderr, "vega-serve: save-on-exit:", err)
			} else {
				fmt.Printf("vega-serve: snapshot checkpointed to %s\n", *saveExit)
			}
		}
	}
	fmt.Println("vega-serve: bye")
}

// obsCleanup flushes and closes the metrics sink; set in main when
// -metrics is active so error exits (os.Exit skips defers) still flush.
var obsCleanup func()

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vega-serve:", err)
		if obsCleanup != nil {
			obsCleanup()
		}
		os.Exit(1)
	}
}
