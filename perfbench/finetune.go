package main

import (
	"context"
	"math"
	"runtime"
	"time"

	"vega/internal/core"
	"vega/internal/obs"
)

// finetuneConfig is the bench-fixture budget with fewer epochs and
// samples, so that several complete trainings fit in one run and train_s
// is a median rather than a single reading. Every phase the fixture runs
// stays in: vocabulary, one pre-training epoch, fine-tuning epochs and
// the verification exact-match pass.
func finetuneConfig() core.Config {
	cfg := benchConfig()
	cfg.Train.Epochs = 3
	cfg.MaxSamples = 250
	cfg.VerifyCap = 60
	return cfg
}

type finetunePhase struct {
	train, check []float64 // seconds per training
	trainCPU     []float64 // CPU seconds per training
	trainAlloc   []float64 // MB allocated per training
	verifyEM     []float64
	samples      int
	retried      int
	skipped      int
	wall         time.Duration
}

// runFinetune measures Stage 2: Pipeline.TrainContext from Stage 1 state.
func runFinetune(r *runner) error {
	build := func(o *obs.Obs, tp *timedProvider) (*core.Pipeline, error) {
		cfg := finetuneConfig()
		cfg.Obs = o
		return standardPipeline(cfg, tp)
	}
	p, err := timeSetup(r, func() (*core.Pipeline, error) { return build(nil, nil) }, nil)
	if err != nil {
		return err
	}
	budget := time.Duration(r.seconds * float64(time.Second))

	if !r.trace {
		ph, err := measureFinetune(r, p, budget, 3)
		if err != nil {
			return err
		}
		r.e2e["op_cpu_ms"] = 1000 * median(ph.trainCPU)
		r.e2e["op_alloc_mb"] = median(ph.trainAlloc)
		r.e2e["quality_pct"] = 100 * median(ph.verifyEM)
		r.timing("train_s", "s", ph.train)
		r.timing("train_cpu_s", "s", ph.trainCPU)
		r.note("%-28s %.2f %%", "verify_em_pct", r.e2e["quality_pct"])
		return nil
	}

	base, err := measureFinetune(r, p, budget/3, 1)
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
	ph, err := measureFinetune(r, pt, 2*budget/3, 1)
	if err != nil {
		return err
	}
	pre := median(tr.spans("stage2/pretrain"))
	fit := median(tr.spans("stage2/fit"))
	ver := median(tr.spans("stage2/verify"))
	r.layer["train.pretrain_s"] = pre
	r.layer["train.fit_s"] = fit
	r.layer["train.verify_s"] = ver
	r.layer["train.self_s"] = median(tr.spans("stage2/train")) - pre - fit - ver
	r.layer["train.epoch_s.p50"] = median(tr.childSpans("fit/epoch", "stage2/fit"))
	r.layer["train.samples_per_s"] = ratio(float64(ph.samples*pt.Cfg.Train.Epochs), fit)
	r.layer["train.retried_epochs"] = float64(ph.retried)
	r.layer["train.skipped_samples"] = float64(ph.skipped)
	accounted := sum(tr.spans("stage2/train")) + sum(ph.check)
	phaseLayers(r, m0, median(ph.train), median(base.train), accounted, ph.wall.Seconds())
	if err := modelProbes(r, pt); err != nil {
		return err
	}
	return tr.writeSpans(r, "finetune")
}

// measureFinetune trains from scratch until budget has elapsed, at least
// minOps times. Every loss must be finite; an epoch retried from
// last-good weights counts as a failed epoch.
func measureFinetune(r *runner, p *core.Pipeline, budget time.Duration, minOps int) (*finetunePhase, error) {
	ph := &finetunePhase{}
	var trainErr error
	ph.wall = window(budget, minOps, func() bool {
		start, cpu0, alloc0 := time.Now(), cpuTime(), allocBytes()
		res, err := p.TrainContext(context.Background())
		done := time.Now()
		ph.trainCPU = append(ph.trainCPU, (cpuTime() - cpu0).Seconds())
		ph.trainAlloc = append(ph.trainAlloc, float64(allocBytes()-alloc0)/(1<<20))
		if err != nil {
			trainErr = err
			return false
		}
		ph.train = append(ph.train, done.Sub(start).Seconds())
		ph.verifyEM = append(ph.verifyEM, res.VerifyExactMatch)
		ph.samples = res.Samples
		epochs := len(res.PretrainLosses) + len(res.EpochLosses)
		r.attempted += epochs
		r.failed += res.RetriedEpochs
		ph.retried += res.RetriedEpochs
		ph.skipped += res.SkippedSamples
		checkLosses(r, res)
		// Collect this training's garbage outside its timing, so that the
		// next one starts from a clean heap as a fresh process would.
		runtime.GC()
		ph.check = append(ph.check, time.Since(done).Seconds())
		return true
	})
	return ph, trainErr
}

// checkLosses requires every pre-training and fine-tuning epoch loss to
// be finite.
func checkLosses(r *runner, res *core.TrainResult) {
	for i, l := range append(append([]float64(nil), res.PretrainLosses...), res.EpochLosses...) {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			r.fail("training epoch %d loss is %v", i, l)
		}
	}
	if len(res.EpochLosses) == 0 {
		r.fail("training ran no fine-tuning epoch")
	}
}
