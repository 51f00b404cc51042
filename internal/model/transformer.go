package model

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Config sizes a sequence-to-sequence model.
type Config struct {
	Vocab     int
	Dim       int
	Heads     int
	EncLayers int
	DecLayers int
	FFMult    int
	MaxSeq    int
	Seed      int64
}

// DefaultConfig is the CPU-scale stand-in for UniXcoder used by the
// benchmark harness.
func DefaultConfig(vocab int) Config {
	return Config{
		Vocab: vocab, Dim: 64, Heads: 4,
		EncLayers: 2, DecLayers: 2, FFMult: 4,
		MaxSeq: 192, Seed: 1,
	}
}

// Transformer is the encoder-decoder behind CodeBE.
type Transformer struct {
	Cfg    Config
	Embed  *Tensor // token embeddings (tied with the output projection)
	PosEnc *Tensor // learned positional embeddings
	Enc    []*EncoderLayer
	Dec    []*DecoderLayer
	NormE  *Norm
	NormD  *Norm

	params []*Tensor

	// embT lazily caches Embed transposed to Dim×Vocab so the incremental
	// decoder's logits read the embedding row-contiguously instead of
	// column-striding through it once per step. Training mutates Embed in
	// place, so FitContext invalidates the cache when it returns.
	embT struct {
		once sync.Once
		data []float32
	}

	// decPool recycles incremental-decoder states (*decState, see
	// kvcache.go) across the hundreds of short decodes a backend
	// generation performs; all decoders over one transformer share their
	// fixed shape.
	decPool sync.Pool

	// encFree holds EncodeBatch's idle grow-only scratch sets (see
	// batch_infer.go): at most one per EncodeBatch call that ever ran
	// concurrently on this model, each sized for the largest batch it
	// encoded.
	encMu   sync.Mutex
	encFree []*encScratch
}

// embedT returns the cached Dim×Vocab transpose of Embed, building it on
// first use. Safe for concurrent use by generation workers.
func (t *Transformer) embedT() []float32 {
	t.embT.once.Do(func() {
		d, v := t.Cfg.Dim, t.Cfg.Vocab
		tr := make([]float32, d*v)
		for j := 0; j < v; j++ {
			row := t.Embed.Data[j*d : (j+1)*d]
			for p, val := range row {
				tr[p*v+j] = val
			}
		}
		t.embT.data = tr
	})
	return t.embT.data
}

// invalidateEmbT drops the transposed-embedding cache. Called from the
// training loop's single-threaded boundary; must not race with Step.
func (t *Transformer) invalidateEmbT() {
	t.embT.once = sync.Once{}
	t.embT.data = nil
}

// NewTransformer allocates a model.
func NewTransformer(cfg Config) *Transformer {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Transformer{Cfg: cfg}
	t.Embed = NewParam(cfg.Vocab, cfg.Dim, rng)
	t.PosEnc = NewParam(cfg.MaxSeq, cfg.Dim, rng)
	for i := 0; i < cfg.EncLayers; i++ {
		t.Enc = append(t.Enc, NewEncoderLayer(cfg.Dim, cfg.Heads, cfg.FFMult, rng))
	}
	for i := 0; i < cfg.DecLayers; i++ {
		t.Dec = append(t.Dec, NewDecoderLayer(cfg.Dim, cfg.Heads, cfg.FFMult, rng))
	}
	t.NormE = NewNorm(cfg.Dim)
	t.NormD = NewNorm(cfg.Dim)

	t.params = []*Tensor{t.Embed, t.PosEnc}
	for _, l := range t.Enc {
		t.params = append(t.params, l.Params()...)
	}
	for _, l := range t.Dec {
		t.params = append(t.params, l.Params()...)
	}
	t.params = append(t.params, t.NormE.Params()...)
	t.params = append(t.params, t.NormD.Params()...)
	return t
}

// Params returns all trainable tensors.
func (t *Transformer) Params() []*Tensor { return t.params }

// NumParams counts scalar parameters.
func (t *Transformer) NumParams() int {
	n := 0
	for _, p := range t.params {
		n += len(p.Data)
	}
	return n
}

func (t *Transformer) clampSeq(ids []int) []int {
	if len(ids) > t.Cfg.MaxSeq {
		return ids[:t.Cfg.MaxSeq]
	}
	return ids
}

// Encode runs the encoder over input piece ids and returns the memory.
func (t *Transformer) Encode(tp *Tape, input []int) *Tensor {
	input = t.clampSeq(input)
	x := tp.Rows(t.Embed, input)
	pos := make([]int, len(input))
	for i := range pos {
		pos[i] = i
	}
	x = tp.Add(x, tp.Rows(t.PosEnc, pos))
	for _, l := range t.Enc {
		x = l.Apply(tp, x)
	}
	return t.NormE.Apply(tp, x)
}

// decodeStates runs the decoder over prefix ids attending to memory.
func (t *Transformer) decodeStates(tp *Tape, prefix []int, mem *Tensor) *Tensor {
	prefix = t.clampSeq(prefix)
	x := tp.Rows(t.Embed, prefix)
	pos := make([]int, len(prefix))
	for i := range pos {
		pos[i] = i
	}
	x = tp.Add(x, tp.Rows(t.PosEnc, pos))
	for _, l := range t.Dec {
		x = l.Apply(tp, x, mem)
	}
	return t.NormD.Apply(tp, x)
}

// Logits projects decoder states onto the vocabulary with the tied
// embedding matrix.
func (t *Transformer) Logits(tp *Tape, states *Tensor) *Tensor {
	return tp.MatMul(states, tp.Transpose(t.Embed))
}

// Loss computes teacher-forced cross entropy for one (input, output) pair.
// The output must not include BOS/EOS; they are added here.
func (t *Transformer) Loss(tp *Tape, input, output []int) *Tensor {
	mem := t.Encode(tp, input)
	prefix := append([]int{BOS}, output...)
	prefix = t.clampSeq(prefix)
	states := t.decodeStates(tp, prefix, mem)
	logits := t.Logits(tp, states)
	targets := append(append([]int{}, output...), EOS)
	targets = targets[:logits.R]
	return tp.CrossEntropy(logits, targets)
}

// Generate decodes greedily from input, up to maxLen output pieces, by
// running Greedy over a KV-cached decoder.
func (t *Transformer) Generate(input []int, maxLen int) []int {
	return t.Greedy(t.NewIncrementalDecoder(input), maxLen)
}

func argmax(xs []float32) int {
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range xs {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Sample is one training example.
type Sample struct {
	Input  []int
	Output []int
}

// Seq2Seq is the interface shared by the transformer and the ablation
// baselines, which is all the trainer and the generator need.
type Seq2Seq interface {
	Params() []*Tensor
	Loss(tp *Tape, input, output []int) *Tensor
	Generate(input []int, maxLen int) []int
}

var _ Seq2Seq = (*Transformer)(nil)

// ExactMatch evaluates the fraction of samples whose greedy generation
// reproduces the reference output exactly (the paper's Exact Match score).
// Samples decode concurrently, GOMAXPROCS at a time.
func ExactMatch(m Seq2Seq, samples []Sample, maxLen int) float64 {
	if len(samples) == 0 {
		return 0
	}
	results := make([]bool, len(samples))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range samples {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			got := m.Generate(samples[i].Input, maxLen)
			results[i] = equalInts(got, samples[i].Output)
		}(i)
	}
	wg.Wait()
	n := 0
	for _, ok := range results {
		if ok {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
