package model

import (
	"math"
	"math/rand"
	"testing"
)

// The reference ops below are GELU, Softmax, LayerNorm and HConcat as
// they were before their backward passes resolved each gradient buffer
// once per op (and before GELU kept its derivative from the forward
// pass): tp.g per row or per element, the derivative recomputed with a
// second Tanh. The tests run every op and its reference on identical
// graphs and require the same bits in every gradient.

func (tp *Tape) geluRef(a *Tensor) *Tensor {
	out := tp.newTensorNoZero(a.R, a.C)
	const c0 = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range a.Data {
		x := float64(v)
		out.Data[i] = float32(0.5 * x * (1 + math.Tanh(c0*(x+0.044715*x*x*x))))
	}
	return tp.record(out, func() {
		if !a.requiresGrad {
			return
		}
		ag := tp.g(a)
		for i := range ag {
			x := float64(a.Data[i])
			t := math.Tanh(c0 * (x + 0.044715*x*x*x))
			d := 0.5*(1+t) + 0.5*x*(1-t*t)*c0*(1+3*0.044715*x*x)
			ag[i] += out.Grad[i] * float32(d)
		}
	}, a)
}

func (tp *Tape) softmaxRef(a *Tensor, mask []float32) *Tensor {
	out := tp.newTensorNoZero(a.R, a.C)
	for i := 0; i < a.R; i++ {
		arow, orow := a.Row(i), out.Row(i)
		maxv := float32(math.Inf(-1))
		for j, v := range arow {
			if mask != nil {
				v += mask[i*a.C+j]
			}
			if v > maxv {
				maxv = v
			}
		}
		var sum float32
		for j, v := range arow {
			if mask != nil {
				v += mask[i*a.C+j]
			}
			e := float32(math.Exp(float64(v - maxv)))
			orow[j] = e
			sum += e
		}
		if sum > 0 {
			inv := 1 / sum
			for j := range orow {
				orow[j] *= inv
			}
		}
	}
	return tp.record(out, func() {
		if !a.requiresGrad {
			return
		}
		for i := 0; i < a.R; i++ {
			orow := out.Row(i)
			grow := out.Grad[i*a.C : (i+1)*a.C]
			var dot float32
			for j := range orow {
				dot += orow[j] * grow[j]
			}
			agrow := tp.g(a)[i*a.C : (i+1)*a.C]
			for j := range orow {
				agrow[j] += orow[j] * (grow[j] - dot)
			}
		}
	}, a)
}

func (tp *Tape) layerNormRef(a, gain, bias *Tensor) *Tensor {
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
		for i := 0; i < a.R; i++ {
			arow := a.Row(i)
			grow := out.Grad[i*a.C : (i+1)*a.C]
			mean, is := means[i], invstd[i]
			n := float32(a.C)
			var sumG, sumGX float32
			for j := range grow {
				xhat := (arow[j] - mean) * is
				g := grow[j] * gain.Data[j]
				sumG += g
				sumGX += g * xhat
				if gain.requiresGrad {
					tp.g(gain)[j] += grow[j] * xhat
				}
				if bias.requiresGrad {
					tp.g(bias)[j] += grow[j]
				}
			}
			if a.requiresGrad {
				ag := tp.g(a)[i*a.C : (i+1)*a.C]
				for j := range grow {
					xhat := (arow[j] - mean) * is
					g := grow[j] * gain.Data[j]
					ag[j] += is * (g - sumG/n - xhat*sumGX/n)
				}
			}
		}
	}, a, gain, bias)
}

func (tp *Tape) hconcatRef(a, b *Tensor) *Tensor {
	out := tp.newTensorNoZero(a.R, a.C+b.C)
	for i := 0; i < a.R; i++ {
		copy(out.Row(i)[:a.C], a.Row(i))
		copy(out.Row(i)[a.C:], b.Row(i))
	}
	return tp.record(out, func() {
		for i := 0; i < a.R; i++ {
			grow := out.Grad[i*out.C : (i+1)*out.C]
			if a.requiresGrad {
				ag := tp.g(a)[i*a.C : (i+1)*a.C]
				for j := range ag {
					ag[j] += grow[j]
				}
			}
			if b.requiresGrad {
				bg := tp.g(b)[i*b.C : (i+1)*b.C]
				for j := range bg {
					bg[j] += grow[a.C+j]
				}
			}
		}
	}, a, b)
}

// tapeOp applies one op to its inputs on tp.
type tapeOp func(tp *Tape, in []*Tensor) *Tensor

// opGrads builds leaves of the given shapes (values drawn from seed,
// with exact zeros and a wide range), applies op — to the first leaf
// itself or, when owned, to a tape-made copy of it so its gradient
// lives on the tape instead of in a shadow buffer — and backpropagates
// a cross-entropy over a fixed random projection of the result. It
// returns the op's output followed by every leaf's merged gradient.
func opGrads(op tapeOp, shapes [][2]int, seed int64, owned bool) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	leaves := make([]*Tensor, len(shapes))
	for i, s := range shapes {
		leaves[i] = NewParam(s[0], s[1], rng)
		for j := range leaves[i].Data {
			switch rng.Intn(10) {
			case 0:
				leaves[i].Data[j] = 0
			case 1:
				leaves[i].Data[j] *= 8
			}
		}
	}
	tp := NewTape()
	in := append([]*Tensor(nil), leaves...)
	if owned {
		in[0] = tp.Scale(in[0], 1)
	}
	y := op(tp, in)
	proj := NewTensor(y.R, y.C)
	for j := range proj.Data {
		proj.Data[j] = float32(rng.NormFloat64())
	}
	targets := make([]int, y.R)
	for i := range targets {
		targets[i] = (3 * i) % y.C
	}
	tp.Backward(tp.CrossEntropy(tp.Mul(y, proj), targets))
	tp.MergeGrads()
	res := [][]float32{append([]float32(nil), y.Data...)}
	for _, l := range leaves {
		res = append(res, l.Grad)
	}
	return res
}

func TestTapeBackwardMatchesReference(t *testing.T) {
	const r = 7
	causal := make([]float32, r*r)
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			causal[i*r+j] = float32(math.Inf(-1))
		}
	}
	cases := []struct {
		name    string
		op, ref tapeOp
		shapes  [][2]int
	}{
		{"gelu",
			func(tp *Tape, in []*Tensor) *Tensor { return tp.GELU(in[0]) },
			func(tp *Tape, in []*Tensor) *Tensor { return tp.geluRef(in[0]) },
			[][2]int{{r, 19}}},
		{"softmax",
			func(tp *Tape, in []*Tensor) *Tensor { return tp.Softmax(in[0], nil) },
			func(tp *Tape, in []*Tensor) *Tensor { return tp.softmaxRef(in[0], nil) },
			[][2]int{{r, 13}}},
		{"softmax-causal",
			func(tp *Tape, in []*Tensor) *Tensor { return tp.Softmax(in[0], causal) },
			func(tp *Tape, in []*Tensor) *Tensor { return tp.softmaxRef(in[0], causal) },
			[][2]int{{r, r}}},
		{"layernorm",
			func(tp *Tape, in []*Tensor) *Tensor { return tp.LayerNorm(in[0], in[1], in[2]) },
			func(tp *Tape, in []*Tensor) *Tensor { return tp.layerNormRef(in[0], in[1], in[2]) },
			[][2]int{{r, 12}, {1, 12}, {1, 12}}},
		{"hconcat",
			func(tp *Tape, in []*Tensor) *Tensor { return tp.HConcat(in[0], in[1]) },
			func(tp *Tape, in []*Tensor) *Tensor { return tp.hconcatRef(in[0], in[1]) },
			[][2]int{{r, 5}, {r, 9}}},
	}
	for _, tc := range cases {
		for _, owned := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				got := opGrads(tc.op, tc.shapes, seed, owned)
				want := opGrads(tc.ref, tc.shapes, seed, owned)
				for k := range want {
					for i := range want[k] {
						if math.Float32bits(got[k][i]) != math.Float32bits(want[k][i]) {
							t.Fatalf("%s owned=%v seed=%d: result %d element %d = %v (bits %x), reference %v (bits %x)",
								tc.name, owned, seed, k, i, got[k][i], math.Float32bits(got[k][i]),
								want[k][i], math.Float32bits(want[k][i]))
						}
					}
				}
			}
		}
	}
}

// TestGELUWithoutGradMatchesReference covers the forward-only path,
// where GELU keeps no derivative buffer.
func TestGELUWithoutGradMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := NewTensor(5, 23)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64() * 3)
	}
	tp := NewTape()
	got, want := tp.GELU(x), tp.geluRef(x)
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("element %d = %v, reference %v", i, got.Data[i], want.Data[i])
		}
	}
}

// pinnedFitLosses are the epoch losses of pinnedFit as float64 bit
// patterns, recorded before the register-accumulating row kernel and
// the single-lookup tape backward landed. Any kernel or tape change
// inside the determinism contract leaves them unchanged; one that moves
// them changes trained weights, and with them every reported number.
var pinnedFitLosses = []uint64{
	0x400ed302396f78f1,
	0x4008d8904560473f,
	0x4004f7f891db46d5,
	0x4001691cfe3cd328,
	0x3ffce209cd6ba497,
	0x3ff7c830249870ed,
}

// pinnedFit trains a small transformer whose widths cross the row
// kernel's column blocks: Dim 48 (one 48-wide block), head width 12 (an
// 8-lane block plus a masked tail), FF width 192, and a vocabulary of 53
// for the logits.
func pinnedFit() []float64 {
	cfg := Config{Vocab: 53, Dim: 48, Heads: 4, EncLayers: 1, DecLayers: 1, FFMult: 4, MaxSeq: 32, Seed: 5}
	samples := append(copyTask(53, 24, 5, 11), raggedSamples(53)...)
	return fit(NewTransformer(cfg), samples, TrainOptions{Epochs: 6, Batch: 8, LR: 3e-3, Seed: 2})
}

func TestFitLossesPinned(t *testing.T) {
	got := pinnedFit()
	if len(got) != len(pinnedFitLosses) {
		t.Fatalf("%d epoch losses, want %d", len(got), len(pinnedFitLosses))
	}
	for i, l := range got {
		if math.Float64bits(l) != pinnedFitLosses[i] {
			t.Errorf("epoch %d loss %v (bits %#x), pinned %v (bits %#x)",
				i, l, math.Float64bits(l), math.Float64frombits(pinnedFitLosses[i]), pinnedFitLosses[i])
		}
	}
}
