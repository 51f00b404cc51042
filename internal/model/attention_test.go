package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vega/internal/tensor"
)

// The composed attention graph below is what MHA recorded before
// Tape.Attention fused it: per-sample SliceRows, then per head
// SliceCols, MatMul(qh, Transpose(kh)), Scale, Softmax with an additive
// causal mask, MatMul(·, vh) and HConcat, and ConcatRows to re-pack the
// samples. It is the reference the fused op must match bit for bit, so
// the ops only it uses live here.

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

// ConcatRows stacks parts vertically (same column count).
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

// attendRef is one sample's composed multi-head attention over
// already-projected rows: MHA.Apply's route before the fused op.
func attendRef(tp *Tape, q, k, v *Tensor, heads int, causal bool) *Tensor {
	dh := q.C / heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	var mask []float32
	if causal {
		mask = tp.arena.Alloc(q.R * k.R)
		for i := 0; i < q.R; i++ {
			for j := i + 1; j < k.R; j++ {
				mask[i*k.R+j] = float32(math.Inf(-1))
			}
		}
	}

	var out *Tensor
	for h := 0; h < heads; h++ {
		qh := tp.SliceCols(q, h*dh, (h+1)*dh)
		kh := tp.SliceCols(k, h*dh, (h+1)*dh)
		vh := tp.SliceCols(v, h*dh, (h+1)*dh)
		scores := tp.Scale(tp.MatMul(qh, tp.Transpose(kh)), scale)
		oh := tp.MatMul(tp.Softmax(scores, mask), vh)
		if out == nil {
			out = oh
		} else {
			out = tp.HConcat(out, oh)
		}
	}
	return out
}

// composedAttention is the ragged-batch route before the fused op:
// per-sample row slices through attendRef, re-packed by ConcatRows.
func composedAttention(tp *Tape, q, k, v *Tensor, qOffs, kOffs []int, heads int, causal bool) *Tensor {
	parts := make([]*Tensor, len(qOffs)-1)
	for s := range parts {
		qs := tp.SliceRows(q, qOffs[s], qOffs[s+1])
		ks := tp.SliceRows(k, kOffs[s], kOffs[s+1])
		vs := tp.SliceRows(v, kOffs[s], kOffs[s+1])
		parts[s] = attendRef(tp, qs, ks, vs, heads, causal)
	}
	return tp.ConcatRows(parts)
}

// attnFn is one attention route over already-projected q, k, v.
type attnFn func(tp *Tape, q, k, v *Tensor, qOffs, kOffs []int, heads int, causal bool) *Tensor

func fusedAttention(tp *Tape, q, k, v *Tensor, qOffs, kOffs []int, heads int, causal bool) *Tensor {
	return tp.Attention(q, k, v, qOffs, kOffs, heads, causal)
}

// oneSampleRef is MHA.Apply's old route: attendRef on the whole tensors,
// with no row slicing or re-packing.
func oneSampleRef(tp *Tape, q, k, v *Tensor, _, _ []int, heads int, causal bool) *Tensor {
	return attendRef(tp, q, k, v, heads, causal)
}

// attnCase is a ragged batch shape: per-sample query and key lengths.
type attnCase struct {
	lq, lk      []int
	heads, dh   int
	causal      bool
	frozen      [3]bool // q, k, v without a gradient
	owned       bool    // q, k, v made on the tape, so gradients are not shadows
	seed        int64
	description string
}

// attnValue draws a test value: mostly Gaussian, with +0, -0,
// subnormals and large magnitudes mixed in. Large values stay small
// enough that no score, probability or gradient overflows, so every
// result is finite and the comparison covers every bit.
func attnValue(rng *rand.Rand) float32 {
	x := float32(rng.NormFloat64())
	switch rng.Intn(20) {
	case 0, 1:
		return 0
	case 2:
		return float32(math.Copysign(0, -1))
	case 3:
		return x * 1e-39 // subnormal
	case 4:
		return x * float32(math.Pow(10, 2+3*rng.Float64())) // up to ~1e5
	}
	return x
}

func offsets(lens []int) []int {
	offs := make([]int, len(lens)+1)
	for i, n := range lens {
		offs[i+1] = offs[i] + n
	}
	return offs
}

// runAttn builds q, k, v leaves for c, applies the route, backpropagates
// a cross-entropy over a fixed projection of the result, and returns
// the output followed by the q, k and v gradients.
func runAttn(route attnFn, c attnCase) [][]float32 {
	rng := rand.New(rand.NewSource(c.seed))
	qOffs, kOffs := offsets(c.lq), offsets(c.lk)
	d := c.heads * c.dh
	rows := [3]int{qOffs[len(c.lq)], kOffs[len(c.lk)], kOffs[len(c.lk)]}
	leaves := make([]*Tensor, 3)
	for i := range leaves {
		leaves[i] = NewTensor(rows[i], d)
		for j := range leaves[i].Data {
			leaves[i].Data[j] = attnValue(rng)
		}
		if !c.frozen[i] {
			leaves[i].requiresGrad = true
			leaves[i].Grad = make([]float32, len(leaves[i].Data))
		}
	}
	tp := NewTape()
	in := append([]*Tensor(nil), leaves...)
	if c.owned {
		for i := range in {
			in[i] = tp.Scale(in[i], 1)
		}
	}
	y := route(tp, in[0], in[1], in[2], qOffs, kOffs, c.heads, c.causal)
	proj := NewTensor(y.R, y.C)
	for j := range proj.Data {
		proj.Data[j] = float32(rng.NormFloat64())
	}
	targets := make([]int, y.R)
	for i := range targets {
		targets[i] = (5 * i) % y.C
	}
	tp.Backward(tp.CrossEntropy(tp.Mul(y, proj), targets))
	tp.MergeGrads()
	res := [][]float32{append([]float32(nil), y.Data...)}
	for _, l := range leaves {
		res = append(res, l.Grad)
	}
	return res
}

// sameAttnBits reports the first element where the two routes differ.
func sameAttnBits(got, want [][]float32) error {
	names := []string{"output", "dQ", "dK", "dV"}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			return fmt.Errorf("%s: %d values, reference %d", names[r], len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if math.Float32bits(got[r][i]) != math.Float32bits(want[r][i]) {
				return fmt.Errorf("%s[%d] = %v (bits %#x), reference %v (bits %#x)",
					names[r], i, got[r][i], math.Float32bits(got[r][i]), want[r][i], math.Float32bits(want[r][i]))
			}
		}
	}
	return nil
}

// TestTapeAttentionMatchesComposed checks the fused op against the
// composed graph it replaced: forward output and the q, k and v
// gradients, bit for bit, for encoder self-attention, causal decoder
// self-attention, cross-attention with Lq ≠ Lk, 1-row samples, and a
// one-sample batch, which is also checked against MHA.Apply's old
// unsliced route. Head widths cross the AVX2 gates (8 lanes, 8 terms)
// and the shipped 12.
func TestTapeAttentionMatchesComposed(t *testing.T) {
	base := []attnCase{
		{description: "encoder", lq: []int{5, 12, 2, 9, 7}, lk: []int{5, 12, 2, 9, 7}, heads: 4, dh: 12},
		{description: "decoder-causal", lq: []int{2, 8, 4, 33, 12}, lk: []int{2, 8, 4, 33, 12}, heads: 4, dh: 12, causal: true},
		{description: "cross", lq: []int{2, 8, 4, 33, 12}, lk: []int{5, 12, 2, 9, 7}, heads: 4, dh: 12},
		{description: "one-row-cross", lq: []int{1, 1, 3, 1}, lk: []int{1, 4, 1, 1}, heads: 2, dh: 16},
		{description: "one-row-causal", lq: []int{1, 1, 1}, lk: []int{1, 1, 1}, heads: 3, dh: 5, causal: true},
		{description: "single-causal", lq: []int{17}, lk: []int{17}, heads: 4, dh: 16, causal: true},
		{description: "single-cross", lq: []int{6}, lk: []int{11}, heads: 2, dh: 7},
		{description: "single-encoder", lq: []int{9}, lk: []int{9}, heads: 1, dh: 24},
	}
	var cases []attnCase
	for _, c := range base {
		for seed := int64(1); seed <= 2; seed++ {
			for _, owned := range []bool{false, true} {
				for _, frozen := range [][3]bool{{}, {true, false, false}, {false, true, true}} {
					c := c
					c.seed, c.owned, c.frozen = seed, owned, frozen
					cases = append(cases, c)
				}
			}
		}
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/seed=%d/owned=%v/frozen=%v", c.description, c.seed, c.owned, c.frozen)
		got := runAttn(fusedAttention, c)
		if err := sameAttnBits(got, runAttn(composedAttention, c)); err != nil {
			t.Fatalf("%s: vs composed graph: %v", name, err)
		}
		if len(c.lq) == 1 {
			if err := sameAttnBits(got, runAttn(oneSampleRef, c)); err != nil {
				t.Fatalf("%s: vs one-sample route: %v", name, err)
			}
		}
	}
}

func FuzzTapeAttentionAgainstComposed(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(4), uint8(12), false, false)
	f.Add(int64(2), uint8(3), uint8(4), uint8(12), true, false)
	f.Add(int64(3), uint8(1), uint8(2), uint8(8), false, true)
	f.Add(int64(4), uint8(6), uint8(3), uint8(1), true, true)
	f.Fuzz(func(t *testing.T, seed int64, ns, hh, dd uint8, causal, cross bool) {
		rng := rand.New(rand.NewSource(seed))
		c := attnCase{heads: int(hh%4) + 1, dh: int(dd%20) + 1, causal: causal, seed: seed}
		for s := 0; s < int(ns%6)+1; s++ {
			lq := 1 + rng.Intn(24)
			lk := lq
			if cross && !causal {
				lk = 1 + rng.Intn(24)
			}
			c.lq, c.lk = append(c.lq, lq), append(c.lk, lk)
		}
		if err := sameAttnBits(runAttn(fusedAttention, c), runAttn(composedAttention, c)); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	})
}
