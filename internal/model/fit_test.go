package model

import (
	"context"
	"errors"
	"math"
	"testing"

	"vega/internal/faultinject"
)

func TestFitContextCancelBetweenEpochs(t *testing.T) {
	const vocab = 24
	samples := copyTask(vocab, 16, 2, 7)
	m := NewTransformer(tinyConfig(vocab))
	ctx, cancel := context.WithCancel(context.Background())
	opt := TrainOptions{Epochs: 50, Batch: 4, LR: 1e-3, Seed: 3}
	opt.Verbose = func(epoch int, loss float64) {
		if epoch == 1 {
			cancel()
		}
	}
	stats, err := FitContext(ctx, m, samples, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !stats.Canceled {
		t.Error("stats.Canceled not set")
	}
	if n := len(stats.EpochLosses); n != 2 {
		t.Errorf("completed epochs = %d, want 2 (partial losses must survive)", n)
	}
}

func TestFitContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewTransformer(tinyConfig(24))
	stats, err := FitContext(ctx, m, copyTask(24, 4, 2, 1), TrainOptions{Epochs: 3, Batch: 4, LR: 1e-3, Seed: 1})
	if !errors.Is(err, context.Canceled) || !stats.Canceled {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
	if len(stats.EpochLosses) != 0 {
		t.Errorf("epochs ran under a dead context: %v", stats.EpochLosses)
	}
}

func TestFitRecoversFromInjectedNaN(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	const vocab = 24
	samples := copyTask(vocab, 24, 2, 5)
	m := NewTransformer(tinyConfig(vocab))
	faultinject.Arm(faultinject.TrainNaN, "1")
	stats, err := FitContext(context.Background(), m, samples,
		TrainOptions{Epochs: 4, Batch: 8, LR: 3e-3, Seed: 2})
	if err != nil {
		t.Fatalf("training did not recover: %v", err)
	}
	if stats.RetriedEpochs < 1 {
		t.Fatalf("RetriedEpochs = %d, want >= 1", stats.RetriedEpochs)
	}
	if len(stats.EpochLosses) != 4 {
		t.Fatalf("epochs completed = %d, want 4", len(stats.EpochLosses))
	}
	for i, l := range stats.EpochLosses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("epoch %d loss %v leaked into the results", i, l)
		}
	}
	if !paramsFinite(m.Params()) {
		t.Fatal("weights non-finite after recovery")
	}
	if last, first := stats.EpochLosses[3], stats.EpochLosses[0]; last >= first {
		t.Errorf("loss did not fall across recovery: %v", stats.EpochLosses)
	}
}

func TestFitRetrySkipsNotDoubleCounted(t *testing.T) {
	// A poisoned epoch skips every sample, rolls back, and re-runs
	// cleanly. The rolled-back attempt's skips were discarded with its
	// gradients, so they must not surface in SkippedSamples — before the
	// fix this reported the whole epoch's sample count.
	faultinject.Reset()
	defer faultinject.Reset()
	const vocab = 24
	samples := copyTask(vocab, 24, 2, 5)
	m := NewTransformer(tinyConfig(vocab))
	faultinject.Arm(faultinject.TrainNaN, "1")
	stats, err := FitContext(context.Background(), m, samples,
		TrainOptions{Epochs: 3, Batch: 8, LR: 3e-3, Seed: 2})
	if err != nil {
		t.Fatalf("training did not recover: %v", err)
	}
	if stats.RetriedEpochs < 1 {
		t.Fatalf("RetriedEpochs = %d, want >= 1 (injection did not fire)", stats.RetriedEpochs)
	}
	if stats.SkippedSamples != 0 {
		t.Errorf("SkippedSamples = %d, want 0: rolled-back attempts' skips were counted",
			stats.SkippedSamples)
	}
}

func TestFitGivesUpAfterRetryBudget(t *testing.T) {
	// A model whose loss is always NaN can never produce a good epoch;
	// FitContext must stop with ErrTrainingDiverged instead of looping.
	m := &nanModel{Transformer: NewTransformer(tinyConfig(24))}
	stats, err := FitContext(context.Background(), m, copyTask(24, 8, 2, 1),
		TrainOptions{Epochs: 3, Batch: 4, LR: 1e-3, Seed: 1, MaxEpochRetries: 1})
	if !errors.Is(err, ErrTrainingDiverged) {
		t.Fatalf("err = %v, want ErrTrainingDiverged", err)
	}
	if stats.RetriedEpochs != 1 {
		t.Errorf("RetriedEpochs = %d, want 1", stats.RetriedEpochs)
	}
	if stats.SkippedSamples == 0 {
		t.Error("non-finite samples were not counted as skipped")
	}
}

func TestFitIsolatesPanickingSample(t *testing.T) {
	base := NewTransformer(tinyConfig(24))
	m := &panicOnceModel{Transformer: base}
	stats, err := FitContext(context.Background(), m, copyTask(24, 12, 2, 9),
		TrainOptions{Epochs: 2, Batch: 4, LR: 1e-3, Seed: 4})
	if err != nil {
		t.Fatalf("a single panicking sample killed training: %v", err)
	}
	if stats.SkippedSamples != 1 {
		t.Errorf("SkippedSamples = %d, want 1", stats.SkippedSamples)
	}
	if len(stats.EpochLosses) != 2 {
		t.Errorf("epochs = %d, want 2", len(stats.EpochLosses))
	}
}

func TestFitInjectedTrainCancel(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Arm(faultinject.TrainCancel, "1")
	m := NewTransformer(tinyConfig(24))
	stats, err := FitContext(context.Background(), m, copyTask(24, 8, 2, 1),
		TrainOptions{Epochs: 5, Batch: 4, LR: 1e-3, Seed: 1})
	if !errors.Is(err, context.Canceled) || !stats.Canceled {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
	if len(stats.EpochLosses) != 1 {
		t.Errorf("epochs before injected cancel = %d, want 1", len(stats.EpochLosses))
	}
}

// nanModel wraps a transformer but reports NaN loss for every sample.
type nanModel struct{ *Transformer }

func (m *nanModel) Loss(tp *Tape, input, output []int) *Tensor {
	loss := m.Transformer.Loss(tp, input, output)
	loss.Data[0] = float32(math.NaN())
	return loss
}

// panicOnceModel panics on the first Loss call only.
type panicOnceModel struct {
	*Transformer
	fired bool
}

func (m *panicOnceModel) Loss(tp *Tape, input, output []int) *Tensor {
	if !m.fired {
		m.fired = true
		panic("injected sample crash")
	}
	return m.Transformer.Loss(tp, input, output)
}
