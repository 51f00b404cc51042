// Package model implements the neural machinery behind CodeBE, VEGA's
// code-generation model, entirely from scratch: a float32 matrix type with
// tape-based reverse-mode autodiff, the transformer encoder-decoder that
// plays the role of the fine-tuned UniXcoder, a GRU seq2seq and an
// encoder-only "vanilla BERT"-style baseline for the paper's model
// ablation, a subword tokenizer, and the Adam optimizer. The numeric
// kernels under every op live in internal/tensor; this package owns the
// autodiff bookkeeping on top of them.
package model

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"vega/internal/tensor"
)

// Tensor is a dense row-major float32 matrix participating in automatic
// differentiation. Vectors are 1×C or R×1 matrices.
type Tensor struct {
	R, C int
	Data []float32
	Grad []float32

	requiresGrad bool
	back         func()
	parents      []*Tensor
	owner        *Tape // tape that created this tensor; nil for leaves
}

// NewTensor allocates a zero matrix on the heap (parameters and other
// long-lived tensors; tape intermediates come from the tape's arena).
func NewTensor(r, c int) *Tensor {
	return &Tensor{R: r, C: c, Data: make([]float32, r*c)}
}

// NewParam allocates a trainable matrix initialized with scaled Gaussian
// noise (std = 1/sqrt(c)).
func NewParam(r, c int, rng *rand.Rand) *Tensor {
	t := NewTensor(r, c)
	std := 1 / math.Sqrt(float64(c))
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	t.requiresGrad = true
	t.Grad = make([]float32, r*c)
	return t
}

// FromSlice wraps data (copied) into an r×c tensor.
func FromSlice(r, c int, data []float32) *Tensor {
	if len(data) != r*c {
		panic(fmt.Sprintf("model: FromSlice %dx%d with %d values", r, c, len(data)))
	}
	t := NewTensor(r, c)
	copy(t.Data, data)
	return t
}

// At returns the element at row i, column j.
func (t *Tensor) At(i, j int) float32 { return t.Data[i*t.C+j] }

// Set assigns the element at row i, column j.
func (t *Tensor) Set(i, j int, v float32) { t.Data[i*t.C+j] = v }

// Row returns a view of row i's data.
func (t *Tensor) Row(i int) []float32 { return t.Data[i*t.C : (i+1)*t.C] }

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// Tape records the computation graph for one forward pass so Backward can
// replay it in reverse. Tapes are single-goroutine, but several tapes can
// run concurrently over the same parameters: gradients for leaf parameters
// accumulate into tape-local shadow buffers, merged into the parameters
// with MergeGrads.
//
// Every tensor a tape op creates — node struct, data, gradient, shadow
// buffer — lives in the tape's grow-only arena. Reset rewinds the arena
// so the next forward pass reuses the same memory; getTape/putTape keep
// reset tapes in a sync.Pool so a training epoch allocates almost
// nothing after its first batch. A tensor created by a tape (and any
// slice derived from it) is valid only until that tape's Reset.
type Tape struct {
	nodes  []*Tensor
	shadow map[*Tensor][]float32
	order  []*Tensor // shadow keys in first-touch order, for deterministic merges
	arena  tensor.Arena
	slabs  [][]Tensor
	si, sj int // bump position into slabs
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{shadow: make(map[*Tensor][]float32)} }

// Reset rewinds the tape for reuse: nodes, shadow gradients, and the
// arena all clear in O(1) amortized time while the backing memory is
// retained. Every tensor the tape created becomes invalid.
func (tp *Tape) Reset() {
	tp.nodes = tp.nodes[:0]
	clear(tp.shadow)
	tp.order = tp.order[:0]
	tp.arena.Reset()
	tp.si, tp.sj = 0, 0
}

// tapePool recycles reset tapes across batches and epochs. A pooled
// tape's arena keeps its high-water-mark footprint, so steady-state
// training reuses the same few chunks instead of churning the GC.
var tapePool = sync.Pool{New: func() any { return NewTape() }}

func getTape() *Tape { return tapePool.Get().(*Tape) }

func putTape(tp *Tape) {
	tp.Reset()
	tapePool.Put(tp)
}

// tapeSlabLen sizes the Tensor-struct slabs the tape bump-allocates
// node headers from.
const tapeSlabLen = 256

// slot returns the next recycled Tensor struct.
func (tp *Tape) slot() *Tensor {
	if tp.si == len(tp.slabs) {
		tp.slabs = append(tp.slabs, make([]Tensor, tapeSlabLen))
	}
	t := &tp.slabs[tp.si][tp.sj]
	tp.sj++
	if tp.sj == tapeSlabLen {
		tp.si++
		tp.sj = 0
	}
	return t
}

// newTensor allocates an r×c tensor with zeroed data in the tape's arena.
func (tp *Tape) newTensor(r, c int) *Tensor {
	t := tp.slot()
	*t = Tensor{R: r, C: c, Data: tp.arena.Alloc(r * c)}
	return t
}

// newTensorNoZero is newTensor for ops that overwrite every element.
func (tp *Tape) newTensorNoZero(r, c int) *Tensor {
	t := tp.slot()
	*t = Tensor{R: r, C: c, Data: tp.arena.AllocNoZero(r * c)}
	return t
}

func (tp *Tape) record(t *Tensor, back func(), parents ...*Tensor) *Tensor {
	t.back = back
	t.parents = parents
	t.owner = tp
	for _, p := range parents {
		if p.requiresGrad {
			t.requiresGrad = true
		}
	}
	if t.requiresGrad && t.Grad == nil {
		t.Grad = tp.arena.Alloc(len(t.Data))
	}
	tp.nodes = append(tp.nodes, t)
	return t
}

// g returns the gradient buffer to accumulate into for t: the tensor's own
// buffer when the tape created it, a tape-local shadow for shared leaves.
func (tp *Tape) g(t *Tensor) []float32 {
	if t.owner == tp {
		return t.Grad
	}
	if buf, ok := tp.shadow[t]; ok {
		return buf
	}
	buf := tp.arena.Alloc(len(t.Data))
	tp.shadow[t] = buf
	tp.order = append(tp.order, t)
	return buf
}

// Backward back-propagates from loss (a 1×1 tensor) through the tape.
// Leaf-parameter gradients land in shadow buffers; call MergeGrads to
// flush them into the parameters.
func (tp *Tape) Backward(loss *Tensor) {
	if len(loss.Data) != 1 {
		panic("model: Backward expects a scalar loss")
	}
	if loss.Grad == nil {
		loss.Grad = make([]float32, 1)
	}
	loss.Grad[0] = 1
	for i := len(tp.nodes) - 1; i >= 0; i-- {
		n := tp.nodes[i]
		if n.back != nil && n.requiresGrad {
			n.back()
		}
	}
}

// MergeGrads adds the tape's shadow gradients into their parameters, in
// the order the parameters were first touched during the backward pass.
// That order is a pure function of the recorded graph, so — together
// with FitContext merging tapes in batch-index order — merged gradients
// are bit-identical run to run regardless of worker scheduling. Callers
// running tapes concurrently must serialize MergeGrads.
func (tp *Tape) MergeGrads() {
	for _, p := range tp.order {
		buf := tp.shadow[p]
		pg := p.Grad
		for i := range buf {
			pg[i] += buf[i]
		}
	}
}

// --- primitive ops ---

// MatMul multiplies a (r×k) by b (k×c).
func (tp *Tape) MatMul(a, b *Tensor) *Tensor {
	if a.C != b.R {
		panic(fmt.Sprintf("model: MatMul %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	out := tp.newTensor(a.R, b.C)
	matmul(out.Data, a.Data, b.Data, a.R, a.C, b.C)
	return tp.record(out, func() {
		// dA = dOut · Bᵀ ; dB = Aᵀ · dOut
		if a.requiresGrad {
			tensor.MatMulNT(tp.g(a), out.Grad, b.Data, a.R, b.C, a.C)
		}
		if b.requiresGrad {
			tensor.MatMulTN(tp.g(b), a.Data, out.Grad, a.C, a.R, b.C)
		}
	}, a, b)
}

// MatMulNT multiplies a (r×k) by bᵀ (b is c×k) without materializing the
// transpose. The batched trainer uses it for the tied output projection
// (states · Embedᵀ), where transposing the embedding per batch would
// dominate the tape.
func (tp *Tape) MatMulNT(a, b *Tensor) *Tensor {
	if a.C != b.C {
		panic(fmt.Sprintf("model: MatMulNT %dx%d · (%dx%d)ᵀ", a.R, a.C, b.R, b.C))
	}
	out := tp.newTensor(a.R, b.R)
	tensor.MatMulNT(out.Data, a.Data, b.Data, a.R, a.C, b.R)
	return tp.record(out, func() {
		// dA = dOut · B ; dB = dOutᵀ · A
		if a.requiresGrad {
			tensor.MatMul(tp.g(a), out.Grad, b.Data, a.R, b.R, a.C)
		}
		if b.requiresGrad {
			tensor.MatMulTN(tp.g(b), out.Grad, a.Data, b.R, a.R, a.C)
		}
	}, a, b)
}

// matmul and axpy delegate to the kernel layer; kvcache.go calls them
// under these names to stay in visible lockstep with the tape ops.
func matmul(out, a, b []float32, r, k, c int) { tensor.MatMul(out, a, b, r, k, c) }

func axpy(dst, src []float32, alpha float32) { tensor.Axpy(dst, src, alpha) }

// Add returns a + b (same shape), or a + row-broadcast b (b is 1×C).
func (tp *Tape) Add(a, b *Tensor) *Tensor {
	switch {
	case b.R == a.R && b.C == a.C:
		out := tp.newTensorNoZero(a.R, a.C)
		for i := range out.Data {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
		return tp.record(out, func() {
			if a.requiresGrad {
				axpy(tp.g(a), out.Grad, 1)
			}
			if b.requiresGrad {
				axpy(tp.g(b), out.Grad, 1)
			}
		}, a, b)
	case b.R == 1 && b.C == a.C:
		out := tp.newTensorNoZero(a.R, a.C)
		for i := 0; i < a.R; i++ {
			arow, orow := a.Row(i), out.Row(i)
			for j := range orow {
				orow[j] = arow[j] + b.Data[j]
			}
		}
		return tp.record(out, func() {
			if a.requiresGrad {
				axpy(tp.g(a), out.Grad, 1)
			}
			if b.requiresGrad {
				bg := tp.g(b)
				for i := 0; i < a.R; i++ {
					orow := out.Grad[i*a.C : (i+1)*a.C]
					for j := range orow {
						bg[j] += orow[j]
					}
				}
			}
		}, a, b)
	default:
		panic(fmt.Sprintf("model: Add shape mismatch %dx%d + %dx%d", a.R, a.C, b.R, b.C))
	}
}

// Scale returns a·s.
func (tp *Tape) Scale(a *Tensor, s float32) *Tensor {
	out := tp.newTensorNoZero(a.R, a.C)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * s
	}
	return tp.record(out, func() {
		if a.requiresGrad {
			axpy(tp.g(a), out.Grad, s)
		}
	}, a)
}

// Mul returns the elementwise product.
func (tp *Tape) Mul(a, b *Tensor) *Tensor {
	if a.R != b.R || a.C != b.C {
		panic("model: Mul shape mismatch")
	}
	out := tp.newTensorNoZero(a.R, a.C)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return tp.record(out, func() {
		if a.requiresGrad {
			ag := tp.g(a)
			for i := range ag {
				ag[i] += out.Grad[i] * b.Data[i]
			}
		}
		if b.requiresGrad {
			bg := tp.g(b)
			for i := range bg {
				bg[i] += out.Grad[i] * a.Data[i]
			}
		}
	}, a, b)
}

// ReLU applies max(0, x).
func (tp *Tape) ReLU(a *Tensor) *Tensor {
	out := tp.newTensor(a.R, a.C)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return tp.record(out, func() {
		if a.requiresGrad {
			ag := tp.g(a)
			for i := range ag {
				if a.Data[i] > 0 {
					ag[i] += out.Grad[i]
				}
			}
		}
	}, a)
}

// GELU applies the tanh-approximated Gaussian error linear unit. When a
// needs a gradient, the forward pass also keeps the derivative, rounded
// to float32 as the backward uses it, in the tape's arena, so the
// backward does not recompute the Tanh.
func (tp *Tape) GELU(a *Tensor) *Tensor {
	out := tp.newTensorNoZero(a.R, a.C)
	var deriv []float32
	if a.requiresGrad {
		deriv = tp.arena.AllocNoZero(len(a.Data))
	}
	tensor.GELURow(out.Data, a.Data, deriv)
	return tp.record(out, func() {
		if !a.requiresGrad {
			return
		}
		ag := tp.g(a)
		for i, d := range deriv {
			ag[i] += out.Grad[i] * d
		}
	}, a)
}

// Sigmoid applies 1/(1+e^-x).
func (tp *Tape) Sigmoid(a *Tensor) *Tensor {
	out := tp.newTensorNoZero(a.R, a.C)
	for i, v := range a.Data {
		out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return tp.record(out, func() {
		if a.requiresGrad {
			ag := tp.g(a)
			for i := range ag {
				y := out.Data[i]
				ag[i] += out.Grad[i] * y * (1 - y)
			}
		}
	}, a)
}

// Tanh applies the hyperbolic tangent.
func (tp *Tape) Tanh(a *Tensor) *Tensor {
	out := tp.newTensorNoZero(a.R, a.C)
	for i, v := range a.Data {
		out.Data[i] = float32(math.Tanh(float64(v)))
	}
	return tp.record(out, func() {
		if a.requiresGrad {
			ag := tp.g(a)
			for i := range ag {
				y := out.Data[i]
				ag[i] += out.Grad[i] * (1 - y*y)
			}
		}
	}, a)
}

// Softmax applies a row-wise softmax with optional additive mask (same
// shape, typically 0 / -inf values) applied before normalization.
func (tp *Tape) Softmax(a *Tensor, mask []float32) *Tensor {
	out := tp.newTensorNoZero(a.R, a.C)
	for i := 0; i < a.R; i++ {
		arow, orow := a.Row(i), out.Row(i)
		if mask != nil {
			mrow := mask[i*a.C : (i+1)*a.C]
			for j, v := range arow {
				orow[j] = v + mrow[j]
			}
			arow = orow
		}
		tensor.SoftmaxRow(orow, arow)
	}
	return tp.record(out, func() {
		if !a.requiresGrad || a.R == 0 {
			return
		}
		ag := tp.g(a)
		for i := 0; i < a.R; i++ {
			orow := out.Row(i)
			grow := out.Grad[i*a.C : (i+1)*a.C]
			var dot float32
			for j := range orow {
				dot += orow[j] * grow[j]
			}
			agrow := ag[i*a.C : (i+1)*a.C]
			for j := range orow {
				agrow[j] += orow[j] * (grow[j] - dot)
			}
		}
	}, a)
}

// LayerNorm normalizes each row to zero mean / unit variance and applies
// learned gain and bias (both 1×C).
func (tp *Tape) LayerNorm(a, gain, bias *Tensor) *Tensor {
	const eps = 1e-5
	out := tp.newTensorNoZero(a.R, a.C)
	means := tp.arena.AllocNoZero(a.R)
	invstd := tp.arena.AllocNoZero(a.R)
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		var mean float32
		for _, v := range arow {
			mean += v
		}
		mean /= float32(a.C)
		var vr float32
		for _, v := range arow {
			d := v - mean
			vr += d * d
		}
		vr /= float32(a.C)
		is := float32(1 / math.Sqrt(float64(vr)+eps))
		means[i], invstd[i] = mean, is
		orow := out.Row(i)
		for j, v := range arow {
			orow[j] = (v-mean)*is*gain.Data[j] + bias.Data[j]
		}
	}
	return tp.record(out, func() {
		// A zero-row op must touch no buffer: a shadow buffer, once
		// resolved, is merged even if nothing was added to it.
		if a.R == 0 {
			return
		}
		// Resolve each gradient buffer once. Shadow buffers merge in
		// first-touch order, so keep gain, bias, then a.
		var gg, bg, ag []float32
		if gain.requiresGrad {
			gg = tp.g(gain)
		}
		if bias.requiresGrad {
			bg = tp.g(bias)
		}
		if a.requiresGrad {
			ag = tp.g(a)
		}
		n := float32(a.C)
		for i := 0; i < a.R; i++ {
			arow := a.Row(i)
			grow := out.Grad[i*a.C : (i+1)*a.C]
			mean, is := means[i], invstd[i]
			// xhat = (x-mean)*is
			var sumG, sumGX float32
			for j := range grow {
				xhat := (arow[j] - mean) * is
				g := grow[j] * gain.Data[j]
				sumG += g
				sumGX += g * xhat
				if gg != nil {
					gg[j] += grow[j] * xhat
				}
				if bg != nil {
					bg[j] += grow[j]
				}
			}
			if ag != nil {
				ag := ag[i*a.C : (i+1)*a.C]
				for j := range grow {
					xhat := (arow[j] - mean) * is
					g := grow[j] * gain.Data[j]
					ag[j] += is * (g - sumG/n - xhat*sumGX/n)
				}
			}
		}
	}, a, gain, bias)
}

// Rows gathers the given rows of a into a new len(idx)×C tensor
// (embedding lookup).
func (tp *Tape) Rows(a *Tensor, idx []int) *Tensor {
	out := tp.newTensorNoZero(len(idx), a.C)
	for i, r := range idx {
		copy(out.Row(i), a.Row(r))
	}
	return tp.record(out, func() {
		if !a.requiresGrad {
			return
		}
		ag := tp.g(a)
		for i, r := range idx {
			grow := out.Grad[i*a.C : (i+1)*a.C]
			arow := ag[r*a.C : (r+1)*a.C]
			for j := range grow {
				arow[j] += grow[j]
			}
		}
	}, a)
}

// Concat stacks a over b vertically (same column count).
func (tp *Tape) Concat(a, b *Tensor) *Tensor {
	if a.C != b.C {
		panic("model: Concat column mismatch")
	}
	out := tp.newTensorNoZero(a.R+b.R, a.C)
	copy(out.Data[:len(a.Data)], a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return tp.record(out, func() {
		if a.requiresGrad {
			axpy(tp.g(a), out.Grad[:len(a.Data)], 1)
		}
		if b.requiresGrad {
			axpy(tp.g(b), out.Grad[len(a.Data):], 1)
		}
	}, a, b)
}

// ConcatRows stacks parts vertically (same column count) — the n-ary
// Concat the batched trainer uses to re-pack per-sample attention
// outputs into the ragged minibatch layout.
func (tp *Tape) ConcatRows(parts []*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("model: ConcatRows of nothing")
	}
	c := parts[0].C
	rows := 0
	for _, p := range parts {
		if p.C != c {
			panic(fmt.Sprintf("model: ConcatRows column mismatch %d vs %d", p.C, c))
		}
		rows += p.R
	}
	ps := append([]*Tensor(nil), parts...)
	out := tp.newTensorNoZero(rows, c)
	off := 0
	for _, p := range ps {
		copy(out.Data[off:], p.Data)
		off += len(p.Data)
	}
	return tp.record(out, func() {
		off := 0
		for _, p := range ps {
			if p.requiresGrad {
				axpy(tp.g(p), out.Grad[off:off+len(p.Data)], 1)
			}
			off += len(p.Data)
		}
	}, ps...)
}

// HConcat stacks a and b horizontally (same row count).
func (tp *Tape) HConcat(a, b *Tensor) *Tensor {
	if a.R != b.R {
		panic("model: HConcat row mismatch")
	}
	out := tp.newTensorNoZero(a.R, a.C+b.C)
	for i := 0; i < a.R; i++ {
		copy(out.Row(i)[:a.C], a.Row(i))
		copy(out.Row(i)[a.C:], b.Row(i))
	}
	return tp.record(out, func() {
		if a.R == 0 {
			return
		}
		var ag, bg []float32
		if a.requiresGrad {
			ag = tp.g(a)
		}
		if b.requiresGrad {
			bg = tp.g(b)
		}
		for i := 0; i < a.R; i++ {
			grow := out.Grad[i*out.C : (i+1)*out.C]
			if ag != nil {
				ag := ag[i*a.C : (i+1)*a.C]
				for j := range ag {
					ag[j] += grow[j]
				}
			}
			if bg != nil {
				bg := bg[i*b.C : (i+1)*b.C]
				for j := range bg {
					bg[j] += grow[a.C+j]
				}
			}
		}
	}, a, b)
}

// SliceRows returns rows [lo, hi) as a view-copy.
func (tp *Tape) SliceRows(a *Tensor, lo, hi int) *Tensor {
	out := tp.newTensorNoZero(hi-lo, a.C)
	copy(out.Data, a.Data[lo*a.C:hi*a.C])
	return tp.record(out, func() {
		if a.requiresGrad {
			axpy(tp.g(a)[lo*a.C:hi*a.C], out.Grad, 1)
		}
	}, a)
}

// SliceCols returns columns [lo, hi) as a copy.
func (tp *Tape) SliceCols(a *Tensor, lo, hi int) *Tensor {
	out := tp.newTensorNoZero(a.R, hi-lo)
	for i := 0; i < a.R; i++ {
		copy(out.Row(i), a.Row(i)[lo:hi])
	}
	return tp.record(out, func() {
		if !a.requiresGrad {
			return
		}
		ag := tp.g(a)
		for i := 0; i < a.R; i++ {
			grow := out.Grad[i*out.C : (i+1)*out.C]
			arow := ag[i*a.C+lo : i*a.C+hi]
			for j := range grow {
				arow[j] += grow[j]
			}
		}
	}, a)
}

// Transpose returns aᵀ.
func (tp *Tape) Transpose(a *Tensor) *Tensor {
	out := tp.newTensorNoZero(a.C, a.R)
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			out.Data[j*a.R+i] = a.Data[i*a.C+j]
		}
	}
	return tp.record(out, func() {
		if a.requiresGrad {
			ag := tp.g(a)
			for i := 0; i < a.R; i++ {
				for j := 0; j < a.C; j++ {
					ag[i*a.C+j] += out.Grad[j*a.R+i]
				}
			}
		}
	}, a)
}

// CrossEntropy computes the mean negative log-likelihood of targets under
// row-wise softmax of logits, returning a scalar. Target -1 skips a row.
func (tp *Tape) CrossEntropy(logits *Tensor, targets []int) *Tensor {
	if len(targets) != logits.R {
		panic("model: CrossEntropy target length mismatch")
	}
	probs := tp.arena.AllocNoZero(len(logits.Data))
	out := tp.newTensor(1, 1)
	count := 0
	var loss float64
	for i := 0; i < logits.R; i++ {
		row := logits.Row(i)
		logZ := tensor.SoftmaxLogZ(probs[i*logits.C:(i+1)*logits.C], row)
		if t := targets[i]; t >= 0 {
			loss += logZ - float64(row[t])
			count++
		}
	}
	if count > 0 {
		out.Data[0] = float32(loss / float64(count))
	}
	return tp.record(out, func() {
		if !logits.requiresGrad || count == 0 {
			return
		}
		scale := out.Grad[0] / float32(count)
		lg := tp.g(logits)
		for i := 0; i < logits.R; i++ {
			t := targets[i]
			if t < 0 {
				continue
			}
			grow := lg[i*logits.C : (i+1)*logits.C]
			prow := probs[i*logits.C : (i+1)*logits.C]
			for j := range grow {
				g := prow[j]
				if j == t {
					g -= 1
				}
				grow[j] += scale * g
			}
		}
	}, logits)
}

// CrossEntropyWeighted computes Σᵢ weights[i]·nllᵢ over the rows with
// targets[i] >= 0, using the fused softmax+cross-entropy kernel (one exp
// per logit). It also returns every row's negative log-likelihood so the
// batched trainer can report per-sample losses. Rows with target -1 are
// padding: no loss, no gradient.
func (tp *Tape) CrossEntropyWeighted(logits *Tensor, targets []int, weights []float32) (*Tensor, []float64) {
	if len(targets) != logits.R || len(weights) != logits.R {
		panic("model: CrossEntropyWeighted length mismatch")
	}
	probs := tp.arena.AllocNoZero(len(logits.Data))
	rowNLL := make([]float64, logits.R)
	tensor.SoftmaxXent(probs, logits.Data, targets, logits.R, logits.C, rowNLL)
	var loss float64
	for i, t := range targets {
		if t >= 0 {
			loss += float64(weights[i]) * rowNLL[i]
		}
	}
	out := tp.newTensorNoZero(1, 1)
	out.Data[0] = float32(loss)
	return tp.record(out, func() {
		if !logits.requiresGrad {
			return
		}
		tensor.XentBackward(tp.g(logits), probs, targets, logits.R, logits.C, out.Grad[0], weights)
	}, logits), rowNLL
}
