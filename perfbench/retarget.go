package main

import (
	"context"
	"runtime"
	"time"

	"vega/internal/core"
	"vega/internal/corpus"
	"vega/internal/eval"
	"vega/internal/generate"
	"vega/internal/obs"
	"vega/internal/template"
)

// retargetPhase is what one measured phase of the retarget workload saw.
type retargetPhase struct {
	gen, eval, check []float64 // seconds per backend
	genCPU           []float64 // CPU seconds per backend generation
	genAlloc         []float64 // MB allocated per backend generation
	genByTarget      map[string][]float64
	moduleSecs       map[string][]float64 // Fig. 7 per-module decode seconds per backend
	accurate, funcs  int
	wall             time.Duration
}

// runRetarget is the paper's use case: generate, then evaluate, the
// complete backend for each held-out target, round after round, with the
// command-line defaults (float32 greedy decoding, one worker per CPU).
func runRetarget(r *runner) error {
	pr, err := prepare(r)
	if err != nil {
		return err
	}
	build := func(o *obs.Obs, tp *timedProvider) (*core.Pipeline, error) {
		cfg := benchConfig()
		cfg.Obs = o
		p, err := standardPipeline(cfg, tp)
		if err != nil {
			return nil, err
		}
		return p, p.Load(pr.checkpoint)
	}
	p, err := timeSetup(r, func() (*core.Pipeline, error) { return build(nil, nil) }, nil)
	if err != nil {
		return err
	}
	budget := time.Duration(r.seconds * float64(time.Second))

	if !r.trace {
		ph, err := measureRetarget(r, p, pr, budget)
		if err != nil {
			return err
		}
		r.e2e["op_cpu_ms"] = 1000 * median(ph.genCPU)
		r.e2e["op_alloc_mb"] = median(ph.genAlloc)
		r.e2e["quality_pct"] = 100 * ratio(float64(ph.accurate), float64(ph.funcs))
		r.timing("backend_s", "s", ph.gen)
		r.timing("backend_cpu_s", "s", ph.genCPU)
		r.timing("eval_s", "s", ph.eval)
		r.note("%-28s %.4g 1/s", "backends_per_s", float64(len(ph.gen))/ph.wall.Seconds())
		r.note("%-28s %.2f %%  (%d/%d functions)", "pass1_pct", r.e2e["quality_pct"], ph.accurate, ph.funcs)
		return nil
	}

	// Traced run: an untraced third for the overhead baseline, then the
	// same loop on a pipeline built with the program's instrumentation.
	// Both come after one warm-up round, since the baseline is too short
	// for its median to shrug off a slow first round.
	if _, err := measureRetarget(r, p, pr, 0); err != nil {
		return err
	}
	base, err := measureRetarget(r, p, pr, budget/3)
	if err != nil {
		return err
	}
	tr, tp := newTracer(), &timedProvider{}
	pt, err := build(tr.o, tp)
	if err != nil {
		return err
	}
	gs, calls, _ := tp.snapshot()
	stage1Layers(r, tr, sum(tr.spans("stage1/templatize"))+sum(tr.spans("stage1/split")), gs, calls, workers(pt.Cfg.Stage1Workers))

	m0 := memNow()
	ph, err := measureRetarget(r, pt, pr, 2*budget/3)
	if err != nil {
		return err
	}
	for _, t := range evalTargets {
		r.layer["gen.backend_s."+t] = median(ph.genByTarget[t])
	}
	for _, m := range corpus.Modules {
		r.layer["gen.module_s."+string(m)] = mean(ph.moduleSecs[string(m)])
	}
	r.layer["eval.backend_s"] = median(ph.eval)
	_, _, ref := tp.snapshot()
	r.layer["corpus.reference_backend_s"] = ref.Seconds()
	stage3Layers(r, tr)
	accounted := sum(tr.spans("stage3/generate")) + sum(ph.eval) + sum(ph.check)
	phaseLayers(r, m0, median(ph.gen), median(base.gen), accounted, ph.wall.Seconds())
	if err := modelProbes(r, pt); err != nil {
		return err
	}
	return tr.writeSpans(r, "retarget")
}

// measureRetarget runs whole rounds over the three targets until budget
// has elapsed (at least one round). Every backend must match the
// prepared float32 output byte for byte.
func measureRetarget(r *runner, p *core.Pipeline, pr *prepared, budget time.Duration) (*retargetPhase, error) {
	ph := &retargetPhase{genByTarget: map[string][]float64{}, moduleSecs: map[string][]float64{}}
	refs := map[string]*corpus.Backend{}
	for _, t := range evalTargets {
		ref, err := p.ReferenceBackend(t)
		if err != nil {
			return nil, err
		}
		refs[t] = ref
	}
	templates := map[string]*template.FunctionTemplate{}
	for _, g := range p.Groups {
		templates[g.Func.Name] = g.FT
	}
	ctx := context.Background()
	ph.wall = window(budget, 1, func() bool {
		for _, t := range evalTargets {
			start, cpu0, alloc0 := time.Now(), cpuTime(), allocBytes()
			b := p.GenerateBackendOptions(ctx, t, core.GenOptions{})
			genDone := time.Now()
			ph.genCPU = append(ph.genCPU, (cpuTime() - cpu0).Seconds())
			ph.genAlloc = append(ph.genAlloc, float64(allocBytes()-alloc0)/(1<<20))
			ph.gen = append(ph.gen, genDone.Sub(start).Seconds())
			ph.genByTarget[t] = append(ph.genByTarget[t], genDone.Sub(start).Seconds())
			for m, s := range b.Seconds {
				ph.moduleSecs[m] = append(ph.moduleSecs[m], s)
			}
			checkBackend(r, b, len(p.Groups), pr.refs[refKey(t, false)])
			checkDone := time.Now()
			tot := eval.EvaluateBackend(b, refs[t], templates).Totals()
			ph.accurate += tot.Accurate
			ph.funcs += tot.Funcs
			ph.check = append(ph.check, checkDone.Sub(genDone).Seconds())
			ph.eval = append(ph.eval, time.Since(checkDone).Seconds())
		}
		return true
	})
	return ph, nil
}

// checkBackend accounts one generated backend of want functions:
// functions recovered from a panic, or missing from a partial backend,
// count as failed, and every function must equal the prepared output.
func checkBackend(r *runner, b *generate.Backend, want int, ref map[string]string) {
	r.attempted += want
	r.failed += b.Recovered + max(want-len(b.Functions), 0)
	if b.Partial {
		r.fail("%s: partial backend", b.Target)
	}
	if len(b.Functions) != len(ref) {
		r.fail("%s: %d functions, prepared output has %d", b.Target, len(b.Functions), len(ref))
	}
	for _, f := range b.Functions {
		if got := wireJSON(wireFunction(f)); got != ref[f.Name] {
			r.fail("%s/%s differs from the prepared output of the same commit", b.Target, f.Name)
		}
	}
}

// workers resolves a worker-count setting the way core does.
func workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}
