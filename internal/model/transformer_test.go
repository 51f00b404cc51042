package model

import (
	"context"
	"math/rand"
	"testing"
)

// copyTask builds a tiny dataset: the model must copy the span between
// two SEP markers, which is the core skill backend generation needs
// (copying target-specific values out of the feature vector).
func copyTask(vocabSize, n, spanLen int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	lo := numSpecial + NumConfidenceBuckets
	var samples []Sample
	for i := 0; i < n; i++ {
		span := make([]int, spanLen)
		for j := range span {
			span[j] = lo + rng.Intn(vocabSize-lo)
		}
		input := append([]int{CLS}, span...)
		input = append(input, SEP)
		samples = append(samples, Sample{Input: input, Output: span})
	}
	return samples
}

func tinyConfig(vocab int) Config {
	return Config{Vocab: vocab, Dim: 32, Heads: 2, EncLayers: 1, DecLayers: 1, FFMult: 2, MaxSeq: 32, Seed: 1}
}

// fit trains without cancellation and returns the per-epoch losses.
func fit(m Seq2Seq, samples []Sample, opt TrainOptions) []float64 {
	stats, _ := FitContext(context.Background(), m, samples, opt)
	return stats.EpochLosses
}

func TestTransformerLearnsCopyTask(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const vocab = 40
	samples := copyTask(vocab, 120, 4, 3)
	m := NewTransformer(tinyConfig(vocab))
	opt := TrainOptions{Epochs: 40, Batch: 16, LR: 3e-3, Seed: 1, MinLoss: 0.01}
	losses := fit(m, samples, opt)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not fall: %v -> %v", losses[0], losses[len(losses)-1])
	}
	em := ExactMatch(m, samples[:40], 8)
	if em < 0.8 {
		t.Errorf("copy-task exact match = %.2f, want >= 0.8", em)
	}
}

func TestTransformerGenerateStops(t *testing.T) {
	m := NewTransformer(tinyConfig(30))
	out := m.Generate([]int{CLS, 20, SEP}, 5)
	if len(out) > 5 {
		t.Errorf("generation exceeded maxLen: %d", len(out))
	}
}

func TestTransformerLossFinite(t *testing.T) {
	m := NewTransformer(tinyConfig(30))
	tp := NewTape()
	loss := m.Loss(tp, []int{CLS, 21, 22, SEP}, []int{21, 22})
	if loss.Data[0] <= 0 || loss.Data[0] != loss.Data[0] {
		t.Errorf("initial loss = %f", loss.Data[0])
	}
	tp.Backward(loss)
	tp.MergeGrads()
	var any bool
	for _, g := range m.Embed.Grad {
		if g != 0 {
			any = true
			break
		}
	}
	if !any {
		t.Error("no gradient reached the embeddings")
	}
}

func TestGRULearnsTinyTask(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const vocab = 24
	samples := copyTask(vocab, 60, 2, 5)
	m := NewGRUSeq2Seq(Config{Vocab: vocab, Dim: 32, MaxSeq: 16, Seed: 2})
	losses := fit(m, samples, TrainOptions{Epochs: 30, Batch: 8, LR: 5e-3, Seed: 2})
	if losses[len(losses)-1] >= losses[0]*0.8 {
		t.Errorf("GRU loss did not fall: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestBERTStyleShapes(t *testing.T) {
	m := NewBERTStyle(tinyConfig(30), 6)
	tp := NewTape()
	loss := m.Loss(tp, []int{CLS, 20, SEP}, []int{20, 21})
	if loss.Data[0] <= 0 {
		t.Errorf("loss = %f", loss.Data[0])
	}
	out := m.Generate([]int{CLS, 20, SEP}, 10)
	if len(out) > 6 {
		t.Errorf("BERT-style emitted %d > MaxOut pieces", len(out))
	}
}

func TestFitDeterministicWithSeed(t *testing.T) {
	const vocab = 24
	samples := copyTask(vocab, 12, 2, 7)
	run := func() []float64 {
		m := NewTransformer(tinyConfig(vocab))
		return fit(m, samples, TrainOptions{Epochs: 2, Batch: 4, LR: 1e-3, Seed: 3})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic training: %v vs %v", a, b)
		}
	}
}

func TestExactMatchEmpty(t *testing.T) {
	m := NewTransformer(tinyConfig(24))
	if ExactMatch(m, nil, 4) != 0 {
		t.Error("empty sample set must score 0")
	}
}

func TestNumParams(t *testing.T) {
	m := NewTransformer(tinyConfig(24))
	if m.NumParams() < 1000 {
		t.Errorf("NumParams = %d, suspiciously small", m.NumParams())
	}
}
