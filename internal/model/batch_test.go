package model

import (
	"context"
	"math"
	"runtime"
	"testing"

	"vega/internal/obs"
)

// raggedSamples builds a deliberately awkward minibatch: output lengths
// from 1 to past MaxSeq (exercising the clamp), input lengths all
// different, so every padding row in LossBatch is actually exercised.
func raggedSamples(vocab int) []Sample {
	lo := numSpecial + NumConfidenceBuckets
	tok := func(i int) int { return lo + i%(vocab-lo) }
	seq := func(n, phase int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = tok(i*3 + phase)
		}
		return out
	}
	return []Sample{
		{Input: seq(5, 1), Output: seq(1, 2)},
		{Input: seq(12, 3), Output: seq(7, 4)},
		{Input: seq(2, 5), Output: seq(3, 6)},
		{Input: seq(9, 7), Output: seq(40, 8)}, // longer than tinyConfig's MaxSeq 32
		{Input: seq(7, 9), Output: seq(11, 10)},
	}
}

// TestLossBatchMatchesPerSample is the batched trainer's differential
// anchor: each sample's loss from the padded minibatch forward must
// match its standalone per-sample Loss, and the merged minibatch
// gradient must match the sum of per-sample gradients.
func TestLossBatchMatchesPerSample(t *testing.T) {
	const vocab = 40
	m := NewTransformer(tinyConfig(vocab))
	samples := raggedSamples(vocab)

	tp := NewTape()
	loss, per := m.LossBatch(tp, samples)
	tp.Backward(loss)
	tp.MergeGrads()
	batchGrads := make([][]float32, len(m.Params()))
	for i, p := range m.Params() {
		batchGrads[i] = append([]float32{}, p.Grad...)
		p.ZeroGrad()
	}

	var sum float64
	for s, smp := range samples {
		stp := NewTape()
		l := m.Loss(stp, smp.Input, smp.Output)
		lv := float64(l.Data[0])
		sum += lv
		if diff := math.Abs(per[s] - lv); diff > 1e-5 {
			t.Errorf("sample %d: batched loss %v vs per-sample %v (diff %g)", s, per[s], lv, diff)
		}
		stp.Backward(l)
		stp.MergeGrads()
	}
	if diff := math.Abs(float64(loss.Data[0]) - sum); diff > 1e-4 {
		t.Errorf("batched total %v vs per-sample sum %v (diff %g)", loss.Data[0], sum, diff)
	}

	for i, p := range m.Params() {
		for j, want := range p.Grad {
			got := batchGrads[i][j]
			diff := math.Abs(float64(got - want))
			if diff > 1e-4+1e-3*math.Abs(float64(want)) {
				t.Fatalf("param %d grad[%d]: batched %v vs per-sample %v", i, j, got, want)
			}
		}
	}
}

// TestLossBatchSingleIsLoss pins the degenerate batch: a 1-sample
// LossBatch forward computes exactly what Loss computes (bit-identical
// values, since every kernel is row-local and deterministic).
func TestLossBatchSingleIsLoss(t *testing.T) {
	const vocab = 40
	m := NewTransformer(tinyConfig(vocab))
	smp := copyTask(vocab, 1, 5, 11)[0]

	tp := NewTape()
	loss, per := m.LossBatch(tp, []Sample{smp})
	stp := NewTape()
	want := m.Loss(stp, smp.Input, smp.Output)

	if got := float32(per[0]); got != want.Data[0] {
		t.Errorf("single-sample batched loss %v != per-sample %v", got, want.Data[0])
	}
	_ = loss
}

// fitWeights trains a fresh model at GOMAXPROCS procs and returns the
// flattened weights.
func fitWeights(t *testing.T, mk func() Seq2Seq, procs int) [][]float32 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	m := mk()
	samples := copyTask(40, 24, 4, 5)
	_, err := FitContext(context.Background(), m, samples,
		TrainOptions{Epochs: 2, Batch: 8, LR: 2e-3, Seed: 3})
	if err != nil {
		t.Fatalf("fit (GOMAXPROCS=%d): %v", procs, err)
	}
	out := make([][]float32, len(m.Params()))
	for i, p := range m.Params() {
		out[i] = append([]float32{}, p.Data...)
	}
	return out
}

func assertSameWeights(t *testing.T, a, b [][]float32, what string) {
	t.Helper()
	for i := range a {
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				t.Fatalf("%s: param %d weight %d differs: %v vs %v", what, i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestFitWorkersDeterministic is the determinism regression: identical
// seeds must give bit-identical weights at GOMAXPROCS 1 and 8 and
// across repeated runs — both for the transformer (batched path, whose
// kernels fan out over GOMAXPROCS) and for the GRU baseline (per-sample
// path).
func TestFitWorkersDeterministic(t *testing.T) {
	tr := func() Seq2Seq { return NewTransformer(tinyConfig(40)) }
	gru := func() Seq2Seq {
		cfg := tinyConfig(40)
		return NewGRUSeq2Seq(cfg)
	}

	trW1 := fitWeights(t, tr, 1)
	trW8 := fitWeights(t, tr, 8)
	trW8b := fitWeights(t, tr, 8)
	assertSameWeights(t, trW1, trW8, "transformer GOMAXPROCS 1 vs 8")
	assertSameWeights(t, trW8, trW8b, "transformer GOMAXPROCS 8 repeated")

	gruW1 := fitWeights(t, gru, 1)
	gruW8 := fitWeights(t, gru, 8)
	gruW8b := fitWeights(t, gru, 8)
	assertSameWeights(t, gruW1, gruW8, "gru GOMAXPROCS 1 vs 8")
	assertSameWeights(t, gruW8, gruW8b, "gru GOMAXPROCS 8 repeated")
}

// TestFitCountsSamplePanics: a panicking sample must be visible in the
// fit.sample_panics counter, not silently swallowed.
func TestFitCountsSamplePanics(t *testing.T) {
	sink := &obs.MemSink{}
	o := obs.New(sink)
	ctx := obs.With(context.Background(), o)

	m := &panicOnceModel{Transformer: NewTransformer(tinyConfig(24))}
	stats, err := FitContext(ctx, m, copyTask(24, 12, 2, 9),
		TrainOptions{Epochs: 2, Batch: 4, LR: 1e-3, Seed: 4})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if stats.SkippedSamples != 1 {
		t.Errorf("SkippedSamples = %d, want 1", stats.SkippedSamples)
	}
	o.Flush()
	mt, ok := sink.Metric("fit.sample_panics")
	if !ok {
		t.Fatal("fit.sample_panics metric not emitted")
	}
	if mt.Value != 1 {
		t.Errorf("fit.sample_panics = %v, want 1", mt.Value)
	}
}
