package model

import "math/rand"

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	W *Tensor
	B *Tensor
}

// NewLinear allocates a Linear layer with in×out weights.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	b := NewTensor(1, out)
	b.requiresGrad = true
	b.Grad = make([]float32, out)
	return &Linear{W: NewParam(in, out, rng), B: b}
}

// Apply computes xW + b.
func (l *Linear) Apply(tp *Tape, x *Tensor) *Tensor {
	return tp.Add(tp.MatMul(x, l.W), l.B)
}

// Params returns the layer's trainable tensors.
func (l *Linear) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// Norm is a LayerNorm with learned gain and bias.
type Norm struct {
	Gain *Tensor
	Bias *Tensor
}

// NewNorm allocates a layer norm for width d.
func NewNorm(d int) *Norm {
	g := NewTensor(1, d)
	for i := range g.Data {
		g.Data[i] = 1
	}
	g.requiresGrad = true
	g.Grad = make([]float32, d)
	b := NewTensor(1, d)
	b.requiresGrad = true
	b.Grad = make([]float32, d)
	return &Norm{Gain: g, Bias: b}
}

// Apply normalizes x.
func (n *Norm) Apply(tp *Tape, x *Tensor) *Tensor {
	return tp.LayerNorm(x, n.Gain, n.Bias)
}

// Params returns the trainable tensors.
func (n *Norm) Params() []*Tensor { return []*Tensor{n.Gain, n.Bias} }

// MHA is multi-head attention with d model width and h heads.
type MHA struct {
	D, Heads       int
	WQ, WK, WV, WO *Linear
}

// NewMHA allocates a multi-head attention block.
func NewMHA(d, heads int, rng *rand.Rand) *MHA {
	return &MHA{
		D: d, Heads: heads,
		WQ: NewLinear(d, d, rng), WK: NewLinear(d, d, rng),
		WV: NewLinear(d, d, rng), WO: NewLinear(d, d, rng),
	}
}

// Apply runs attention of query rows x over memory rows mem (self
// attention when mem == x). causal masks future positions (requires
// len(x) == len(mem)). It is applyBatch over a one-sample batch.
func (m *MHA) Apply(tp *Tape, x, mem *Tensor, causal bool) *Tensor {
	return m.applyBatch(tp, x, mem, []int{0, x.R}, []int{0, mem.R}, causal)
}

// applyBatch is Apply over a ragged minibatch: x packs the samples'
// query rows back to back (sample s occupies rows [qOffs[s], qOffs[s+1]))
// and mem packs their memory rows likewise. The projections run batched
// (one matmul over all rows); attention, the only step that mixes rows,
// is one Tape.Attention node that keeps each sample to its own row
// range, so no sample needs a padding mask or sees another. No row is
// padding: the batch does exactly the per-sample flops, in fewer,
// larger kernel calls.
func (m *MHA) applyBatch(tp *Tape, x, mem *Tensor, qOffs, kOffs []int, causal bool) *Tensor {
	q := m.WQ.Apply(tp, x)
	k := m.WK.Apply(tp, mem)
	v := m.WV.Apply(tp, mem)
	return m.WO.Apply(tp, tp.Attention(q, k, v, qOffs, kOffs, m.Heads, causal))
}

// Params returns the trainable tensors.
func (m *MHA) Params() []*Tensor {
	var out []*Tensor
	out = append(out, m.WQ.Params()...)
	out = append(out, m.WK.Params()...)
	out = append(out, m.WV.Params()...)
	out = append(out, m.WO.Params()...)
	return out
}

// FFN is the position-wise feed-forward block.
type FFN struct {
	In, Out *Linear
}

// NewFFN allocates a d → mult·d → d feed-forward block.
func NewFFN(d, mult int, rng *rand.Rand) *FFN {
	return &FFN{In: NewLinear(d, d*mult, rng), Out: NewLinear(d*mult, d, rng)}
}

// Apply runs the block with a GELU nonlinearity.
func (f *FFN) Apply(tp *Tape, x *Tensor) *Tensor {
	return f.Out.Apply(tp, tp.GELU(f.In.Apply(tp, x)))
}

// Params returns the trainable tensors.
func (f *FFN) Params() []*Tensor {
	return append(f.In.Params(), f.Out.Params()...)
}

// EncoderLayer is a pre-norm transformer encoder layer.
type EncoderLayer struct {
	N1, N2 *Norm
	Attn   *MHA
	FF     *FFN
}

// NewEncoderLayer allocates an encoder layer.
func NewEncoderLayer(d, heads, ffMult int, rng *rand.Rand) *EncoderLayer {
	return &EncoderLayer{
		N1: NewNorm(d), N2: NewNorm(d),
		Attn: NewMHA(d, heads, rng), FF: NewFFN(d, ffMult, rng),
	}
}

// Apply runs the layer.
func (l *EncoderLayer) Apply(tp *Tape, x *Tensor) *Tensor {
	h := l.N1.Apply(tp, x)
	x = tp.Add(x, l.Attn.Apply(tp, h, h, false))
	x = tp.Add(x, l.FF.Apply(tp, l.N2.Apply(tp, x)))
	return x
}

// applyBatch runs the layer over a ragged minibatch (sample s at rows
// [offs[s], offs[s+1])). Norms, FFN, and residual adds are row-local so
// they run batched unchanged; only attention needs the offsets (see
// MHA.applyBatch).
func (l *EncoderLayer) applyBatch(tp *Tape, x *Tensor, offs []int) *Tensor {
	h := l.N1.Apply(tp, x)
	x = tp.Add(x, l.Attn.applyBatch(tp, h, h, offs, offs, false))
	x = tp.Add(x, l.FF.Apply(tp, l.N2.Apply(tp, x)))
	return x
}

// Params returns the trainable tensors.
func (l *EncoderLayer) Params() []*Tensor {
	var out []*Tensor
	out = append(out, l.N1.Params()...)
	out = append(out, l.N2.Params()...)
	out = append(out, l.Attn.Params()...)
	out = append(out, l.FF.Params()...)
	return out
}

// DecoderLayer is a pre-norm transformer decoder layer with cross
// attention.
type DecoderLayer struct {
	N1, N2, N3 *Norm
	Self       *MHA
	Cross      *MHA
	FF         *FFN
}

// NewDecoderLayer allocates a decoder layer.
func NewDecoderLayer(d, heads, ffMult int, rng *rand.Rand) *DecoderLayer {
	return &DecoderLayer{
		N1: NewNorm(d), N2: NewNorm(d), N3: NewNorm(d),
		Self: NewMHA(d, heads, rng), Cross: NewMHA(d, heads, rng),
		FF: NewFFN(d, ffMult, rng),
	}
}

// Apply runs the layer over decoder states x attending to encoder memory.
func (l *DecoderLayer) Apply(tp *Tape, x, mem *Tensor) *Tensor {
	h := l.N1.Apply(tp, x)
	x = tp.Add(x, l.Self.Apply(tp, h, h, true))
	x = tp.Add(x, l.Cross.Apply(tp, l.N2.Apply(tp, x), mem, false))
	x = tp.Add(x, l.FF.Apply(tp, l.N3.Apply(tp, x)))
	return x
}

// applyBatch runs the layer over ragged decoder states x (sample s at
// rows [qOffs[s], qOffs[s+1])) attending to ragged encoder memory mem
// (rows [kOffs[s], kOffs[s+1])).
func (l *DecoderLayer) applyBatch(tp *Tape, x, mem *Tensor, qOffs, kOffs []int) *Tensor {
	h := l.N1.Apply(tp, x)
	x = tp.Add(x, l.Self.applyBatch(tp, h, h, qOffs, qOffs, true))
	x = tp.Add(x, l.Cross.applyBatch(tp, l.N2.Apply(tp, x), mem, qOffs, kOffs, false))
	x = tp.Add(x, l.FF.Apply(tp, l.N3.Apply(tp, x)))
	return x
}

// Params returns the trainable tensors.
func (l *DecoderLayer) Params() []*Tensor {
	var out []*Tensor
	out = append(out, l.N1.Params()...)
	out = append(out, l.N2.Params()...)
	out = append(out, l.N3.Params()...)
	out = append(out, l.Self.Params()...)
	out = append(out, l.Cross.Params()...)
	out = append(out, l.FF.Params()...)
	return out
}
