package model

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"vega/internal/faultinject"
	"vega/internal/obs"
)

// ErrTrainingDiverged is returned by FitContext when an epoch keeps
// producing non-finite or diverging losses after the retry budget is
// spent.
var ErrTrainingDiverged = errors.New("model: training diverged")

// TrainOptions tune Fit.
type TrainOptions struct {
	Epochs  int
	Batch   int
	LR      float64
	Seed    int64
	Verbose func(epoch int, loss float64)
	MinLoss float64 // early stop when mean epoch loss dips below
	// LRDecay linearly anneals the learning rate to LR*LRDecay by the
	// final epoch (0 disables; 0.1 ends at a tenth of the initial rate).
	LRDecay float64
	// MaxEpochRetries bounds how many times a bad epoch (NaN/Inf loss,
	// non-finite weights, or divergence) is re-run from the last good
	// weights with the LR halved (retryLRDecay) before Fit gives up. 0
	// means the default of 2; negative disables retries.
	MaxEpochRetries int
	// DivergeFactor flags an epoch as diverging when its mean loss
	// exceeds DivergeFactor times the best epoch mean so far. 0
	// disables the check; NaN/Inf is always caught.
	DivergeFactor float64
}

// retryLRDecay scales the learning rate on each epoch retry.
const retryLRDecay = 0.5

// FitStats reports a training run's outcomes, including the resilience
// events that rescued it.
type FitStats struct {
	// EpochLosses holds the mean loss of every completed epoch.
	EpochLosses []float64
	// RetriedEpochs counts epoch re-runs after NaN/Inf or divergence.
	RetriedEpochs int
	// SkippedSamples counts samples whose forward pass produced a
	// non-finite loss or panicked; their gradients were dropped. Only
	// epochs whose steps were kept contribute — a rolled-back retry
	// attempt's skips are discarded with its gradients, so the same
	// sample is never counted once per retry.
	SkippedSamples int
	// Canceled is set when the context was canceled before all epochs
	// completed; EpochLosses then holds the finished epochs only.
	Canceled bool
}

// Fit trains a model on samples and returns the per-epoch losses; it is
// FitContext without cancellation, retaining the pre-context signature
// used throughout the tests and examples.
func Fit(m Seq2Seq, samples []Sample, opt TrainOptions) []float64 {
	stats, _ := FitContext(context.Background(), m, samples, opt)
	return stats.EpochLosses
}

// FitContext trains a model on samples with minibatch gradient
// accumulation: the transformer runs each batch as one padded
// forward/backward (whose kernels fan out over GOMAXPROCS), other
// models run the batch's samples one after another, and the summed
// gradient feeds one Adam step per batch.
//
// The run is fault tolerant. A sample whose forward pass panics or
// yields a non-finite loss is skipped (its gradients never merge). An
// epoch whose mean loss or weights end up non-finite — or, with
// DivergeFactor set, diverge from the best epoch so far — is rolled
// back to the last good weights and optimizer state and re-run with a
// decayed learning rate, up to MaxEpochRetries times, before
// ErrTrainingDiverged is returned. Cancellation is honored between
// batches; the stats returned alongside ctx.Err() cover the epochs that
// completed.
//
// When an observer is threaded through ctx (obs.With), the run emits a
// fit/epoch span per completed epoch plus per-epoch loss/LR gauges and
// retry/skip counters; without one every instrument is a nil no-op.
func FitContext(ctx context.Context, m Seq2Seq, samples []Sample, opt TrainOptions) (FitStats, error) {
	maxRetries := opt.MaxEpochRetries
	if maxRetries == 0 {
		maxRetries = 2
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	params := m.Params()
	// The batched fast path needs the concrete transformer: wrapper models
	// (including the fault-injection test doubles that embed *Transformer
	// but override Loss) train per sample so their Loss override is honored.
	tr, _ := m.(*Transformer)
	if tr != nil {
		// Training mutates the weights in place; the incremental decoder's
		// transposed-embedding cache must be rebuilt afterwards.
		defer tr.invalidateEmbT()
	}
	adam := NewAdam(params, opt.LR)
	rng := rand.New(rand.NewSource(opt.Seed))
	var stats FitStats

	// Instruments are fetched once per Fit so the epoch loop never takes
	// the registry lock; all of them are inert nil no-ops without an
	// observer in ctx.
	o := obs.From(ctx)
	epochC := o.Counter("fit.epochs")
	lossG := o.Gauge("fit.loss")
	lrG := o.Gauge("fit.lr")
	retriedC := o.Counter("fit.retried_epochs")
	skippedC := o.Counter("fit.skipped_samples")
	panicsC := o.Counter("fit.sample_panics")
	epochH := o.Histogram("fit.epoch_seconds")

	// A panic in tensor math (shape mismatch on a pathological sample) is
	// isolated and counted; the first one per run is logged with its value
	// so the failure mode is diagnosable instead of silently swallowed.
	var panicOnce sync.Once
	logPanic := func(r any) {
		panicOnce.Do(func() {
			log.Printf("model: training sample panicked (first of possibly many this run): %v", r)
		})
	}

	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}

	// runBatch tries the true-minibatch path: one pooled tape, one padded
	// LossBatch forward/backward for the whole batch. It reports false —
	// without having touched any gradient — when the model is not the
	// concrete transformer, the batched loss has a non-finite sample, or
	// the forward pass panics; the caller then falls back to the
	// per-sample path so healthy samples still contribute. Both the
	// trigger (finiteness, panics) and the paths themselves are
	// deterministic, so training stays bit-reproducible either way.
	runBatch := func(batch []int) (ls []float64, ok bool) {
		if tr == nil {
			return nil, false
		}
		tp := getTape()
		defer putTape(tp)
		defer func() {
			if r := recover(); r != nil {
				logPanic(r)
				ls, ok = nil, false
			}
		}()
		bs := make([]Sample, len(batch))
		for i, si := range batch {
			bs[i] = samples[si]
		}
		loss, per := tr.LossBatch(tp, bs)
		for _, lv := range per {
			if math.IsNaN(lv) || math.IsInf(lv, 0) {
				return nil, false
			}
		}
		if lv := float64(loss.Data[0]); math.IsNaN(lv) || math.IsInf(lv, 0) {
			return nil, false
		}
		tp.Backward(loss)
		tp.MergeGrads()
		return per, true
	}

	// runSample is the reference path, taken when runBatch declines: one
	// sample's forward/backward on a pooled tape, whose gradients merge
	// into the parameters right away. It returns the loss, or NaN —
	// merging nothing — when the loss is non-finite or the tensor math
	// panics (a shape mismatch on a pathological sample is isolated to
	// it). A tape reads only parameter data, never gradients, and the
	// caller runs a batch's samples in batch-index order, so with
	// MergeGrads walking parameters in first-touch order the accumulated
	// gradient is deterministic.
	runSample := func(si int) (lv float64) {
		tp := getTape()
		defer putTape(tp)
		defer func() {
			if r := recover(); r != nil {
				panicsC.Inc()
				logPanic(r)
				lv = math.NaN()
			}
		}()
		loss := m.Loss(tp, samples[si].Input, samples[si].Output)
		lv = float64(loss.Data[0])
		if math.IsNaN(lv) || math.IsInf(lv, 0) {
			return math.NaN() // keep the poison out of the gradients
		}
		tp.Backward(loss)
		tp.MergeGrads()
		return lv
	}

	// runEpoch performs one full pass; it returns the mean loss over the
	// samples that contributed gradients plus the number of samples it
	// skipped, or ctx's error when canceled mid-epoch. The skip count is
	// returned rather than accumulated into stats directly so a rolled-
	// back epoch's skips are discarded along with its gradients — only
	// epochs whose effects are kept may count toward SkippedSamples.
	runEpoch := func() (float64, int, error) {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		var count, skipped int
		for start := 0; start < len(order); start += opt.Batch {
			if err := ctx.Err(); err != nil {
				return math.NaN(), skipped, err
			}
			end := start + opt.Batch
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			losses, batched := runBatch(batch)
			if !batched {
				losses = make([]float64, len(batch))
				for bi, si := range batch {
					losses[bi] = runSample(si)
				}
			}
			applied := 0
			for _, l := range losses {
				if math.IsNaN(l) {
					skipped++
					continue
				}
				total += l
				count++
				applied++
			}
			if applied == 0 {
				adam.ZeroGrad()
				continue
			}
			// Average gradients over the contributing samples.
			inv := float32(1 / float64(applied))
			for _, p := range params {
				for i := range p.Grad {
					p.Grad[i] *= inv
				}
			}
			adam.Step()
		}
		if count == 0 {
			return math.NaN(), skipped, nil
		}
		return total / float64(count), skipped, nil
	}

	retryScale := 1.0
	best := math.Inf(1)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			stats.Canceled = true
			return stats, err
		}
		if faultinject.Should(faultinject.TrainCancel, strconv.Itoa(epoch)) {
			stats.Canceled = true
			return stats, fmt.Errorf("model: faultinject train-cancel at epoch %d: %w",
				epoch, context.Canceled)
		}
		// Last-good state for rollback: weights and optimizer moments.
		snap := cloneParamData(params)
		adamSnap := adam.snapshot()
		attempt := 0
		var mean float64
		epochStart := time.Now()
		_, epochSpan := obs.Start(ctx, "fit/epoch", obs.Int("epoch", epoch))
		for {
			if opt.LRDecay > 0 && opt.Epochs > 1 {
				frac := float64(epoch) / float64(opt.Epochs-1)
				adam.LR = opt.LR * (1 - (1-opt.LRDecay)*frac) * retryScale
			} else {
				adam.LR = opt.LR * retryScale
			}
			lrG.Set(adam.LR)
			if faultinject.Should(faultinject.TrainNaN, strconv.Itoa(epoch)) {
				params[0].Data[0] = float32(math.NaN())
			}
			var skipped int
			var err error
			mean, skipped, err = runEpoch()
			if err != nil {
				// Canceled mid-epoch: the completed steps are valid (and
				// stay applied), so its skips count, but the unfinished
				// epoch's mean is not reported.
				stats.SkippedSamples += skipped
				skippedC.Add(float64(skipped))
				stats.Canceled = true
				epochSpan.End()
				return stats, err
			}
			bad := math.IsNaN(mean) || math.IsInf(mean, 0) || !paramsFinite(params)
			if !bad && opt.DivergeFactor > 0 && !math.IsInf(best, 1) && mean > opt.DivergeFactor*best {
				bad = true
			}
			if !bad {
				stats.SkippedSamples += skipped
				skippedC.Add(float64(skipped))
				break
			}
			if attempt >= maxRetries {
				// The retry budget is spent: the run fails with this
				// attempt's outcome, so its skips are part of the story
				// the caller sees alongside ErrTrainingDiverged.
				stats.SkippedSamples += skipped
				skippedC.Add(float64(skipped))
				restoreParamData(params, snap)
				adam.restore(adamSnap)
				epochSpan.End()
				return stats, fmt.Errorf("%w: epoch %d mean loss %v after %d retries",
					ErrTrainingDiverged, epoch, mean, attempt)
			}
			// Rolled back: the attempt's gradients are discarded, and so
			// are its skips — they would double-count the same samples
			// when the epoch re-runs.
			attempt++
			stats.RetriedEpochs++
			retriedC.Inc()
			restoreParamData(params, snap)
			adam.restore(adamSnap)
			retryScale *= retryLRDecay
		}
		epochSpan.SetAttr(obs.Float("loss", mean))
		epochSpan.End()
		epochC.Inc()
		lossG.Set(mean)
		epochH.Observe(time.Since(epochStart).Seconds())
		if mean < best {
			best = mean
		}
		stats.EpochLosses = append(stats.EpochLosses, mean)
		if opt.Verbose != nil {
			opt.Verbose(epoch, mean)
		}
		if opt.MinLoss > 0 && mean < opt.MinLoss {
			break
		}
	}
	return stats, nil
}

func cloneParamData(params []*Tensor) [][]float32 {
	out := make([][]float32, len(params))
	for i, p := range params {
		out[i] = append([]float32{}, p.Data...)
	}
	return out
}

func restoreParamData(params []*Tensor, snap [][]float32) {
	for i, p := range params {
		copy(p.Data, snap[i])
		p.ZeroGrad()
	}
}

func paramsFinite(params []*Tensor) bool {
	for _, p := range params {
		for _, v := range p.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
	}
	return true
}
