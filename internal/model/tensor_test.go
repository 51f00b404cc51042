package model

import (
	"math"
	"math/rand"
	"testing"
)

// numGrad computes a numerical gradient of f with respect to p[i].
func numGrad(f func() float64, p *Tensor, i int) float64 {
	const eps = 1e-3
	orig := p.Data[i]
	p.Data[i] = orig + eps
	hi := f()
	p.Data[i] = orig - eps
	lo := f()
	p.Data[i] = orig
	return (hi - lo) / (2 * eps)
}

// checkGrads verifies analytic vs numerical gradients for a scalar-valued
// computation over the given parameters.
func checkGrads(t *testing.T, build func(tp *Tape) *Tensor, params []*Tensor, tol float64) {
	t.Helper()
	tp := NewTape()
	loss := build(tp)
	tp.Backward(loss)
	tp.MergeGrads()
	f := func() float64 {
		return float64(build(NewTape()).Data[0])
	}
	for pi, p := range params {
		for _, i := range []int{0, len(p.Data) / 2, len(p.Data) - 1} {
			want := numGrad(f, p, i)
			got := float64(p.Grad[i])
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Errorf("param %d elem %d: analytic %g vs numeric %g", pi, i, got, want)
			}
		}
		p.ZeroGrad()
	}
}

func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewParam(3, 4, rng)
	b := NewParam(4, 2, rng)
	checkGrads(t, func(tp *Tape) *Tensor {
		out := tp.MatMul(a, b)
		return tp.CrossEntropy(out, []int{0, 1, 0})
	}, []*Tensor{a, b}, 1e-2)
}

func TestAddBroadcastGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := NewParam(3, 4, rng)
	b := NewParam(1, 4, rng)
	checkGrads(t, func(tp *Tape) *Tensor {
		return tp.CrossEntropy(tp.Add(a, b), []int{1, 2, 3})
	}, []*Tensor{a, b}, 1e-2)
}

func TestSoftmaxCrossEntropyGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewParam(2, 5, rng)
	checkGrads(t, func(tp *Tape) *Tensor {
		return tp.CrossEntropy(tp.Scale(a, 2), []int{4, 0})
	}, []*Tensor{a}, 1e-2)
}

func TestLayerNormGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := NewParam(2, 6, rng)
	n := NewNorm(6)
	params := append([]*Tensor{a}, n.Params()...)
	checkGrads(t, func(tp *Tape) *Tensor {
		return tp.CrossEntropy(n.Apply(tp, a), []int{0, 5})
	}, params, 2e-2)
}

func TestNonlinearityGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewParam(2, 4, rng)
	for name, f := range map[string]func(tp *Tape, x *Tensor) *Tensor{
		"gelu":    func(tp *Tape, x *Tensor) *Tensor { return tp.GELU(x) },
		"sigmoid": func(tp *Tape, x *Tensor) *Tensor { return tp.Sigmoid(x) },
		"tanh":    func(tp *Tape, x *Tensor) *Tensor { return tp.Tanh(x) },
	} {
		fn := f
		t.Run(name, func(t *testing.T) {
			checkGrads(t, func(tp *Tape) *Tensor {
				return tp.CrossEntropy(fn(tp, a), []int{0, 3})
			}, []*Tensor{a}, 2e-2)
		})
	}
}

func TestAttentionGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := NewParam(3, 8, rng)
	mha := NewMHA(8, 2, rng)
	params := append([]*Tensor{x}, mha.Params()...)
	checkGrads(t, func(tp *Tape) *Tensor {
		out := mha.Apply(tp, x, x, true)
		return tp.CrossEntropy(out, []int{0, 1, 2})
	}, params, 3e-2)
}

func TestGRUCellGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := NewParam(1, 6, rng)
	cell := NewGRUCell(6, rng)
	params := append([]*Tensor{x}, cell.Params()...)
	checkGrads(t, func(tp *Tape) *Tensor {
		h := NewTensor(1, 6)
		h1 := cell.Step(tp, x, h)
		h2 := cell.Step(tp, x, h1)
		return tp.CrossEntropy(h2, []int{3})
	}, params, 3e-2)
}

func TestRowsGather(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	emb := NewParam(5, 3, rng)
	tp := NewTape()
	out := tp.Rows(emb, []int{1, 1, 4})
	if out.R != 3 || out.C != 3 {
		t.Fatalf("shape %dx%d", out.R, out.C)
	}
	for j := 0; j < 3; j++ {
		if out.At(0, j) != emb.At(1, j) || out.At(1, j) != emb.At(1, j) || out.At(2, j) != emb.At(4, j) {
			t.Fatal("gather copied wrong rows")
		}
	}
	loss := tp.CrossEntropy(out, []int{0, 1, 2})
	tp.Backward(loss)
	tp.MergeGrads()
	// Row 1 was used twice: its grad should be the sum of two rows' grads.
	var row0 float32
	for j := 0; j < 3; j++ {
		row0 += emb.Grad[1*3+j]
	}
	if row0 == 0 {
		t.Error("row 1 received no gradient")
	}
	var row2 float32
	for j := 0; j < 3; j++ {
		row2 += emb.Grad[2*3+j]
	}
	if row2 != 0 {
		t.Error("unused row received gradient")
	}
}

func TestConcatOps(t *testing.T) {
	tp := NewTape()
	a := FromSlice(1, 2, []float32{1, 2})
	b := FromSlice(2, 2, []float32{3, 4, 5, 6})
	v := tp.Concat(a, b)
	if v.R != 3 || v.At(2, 1) != 6 {
		t.Errorf("Concat wrong: %+v", v)
	}
	h := tp.HConcat(b, b)
	if h.R != 2 || h.C != 4 || h.At(1, 3) != 6 {
		t.Errorf("HConcat wrong: %+v", h)
	}
	s := tp.SliceRows(b, 1, 2)
	if s.R != 1 || s.At(0, 0) != 5 {
		t.Errorf("SliceRows wrong: %+v", s)
	}
	c := tp.SliceCols(b, 1, 2)
	if c.R != 2 || c.C != 1 || c.At(1, 0) != 6 {
		t.Errorf("SliceCols wrong: %+v", c)
	}
	tr := tp.Transpose(b)
	if tr.R != 2 || tr.At(0, 1) != 5 {
		t.Errorf("Transpose wrong: %+v", tr)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	tp := NewTape()
	a := FromSlice(2, 3, []float32{1, 2, 3, -1, 0, 1})
	s := tp.Softmax(a, nil)
	for i := 0; i < 2; i++ {
		var sum float32
		for j := 0; j < 3; j++ {
			sum += s.At(i, j)
		}
		if math.Abs(float64(sum)-1) > 1e-5 {
			t.Errorf("row %d sums to %f", i, sum)
		}
	}
}

func TestCausalMask(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := NewParam(4, 8, rng)
	mha := NewMHA(8, 2, rng)
	tp := NewTape()
	out1 := mha.Apply(tp, x, x, true)
	// Changing a later row must not affect earlier outputs under a causal
	// mask.
	x.Data[3*8+0] += 10
	tp2 := NewTape()
	out2 := mha.Apply(tp2, x, x, true)
	for j := 0; j < 8; j++ {
		if math.Abs(float64(out1.At(0, j)-out2.At(0, j))) > 1e-5 {
			t.Fatalf("causal leak at col %d: %f vs %f", j, out1.At(0, j), out2.At(0, j))
		}
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	w := NewParam(4, 3, rng)
	adam := NewAdam([]*Tensor{w}, 1e-2)
	x := FromSlice(2, 4, []float32{1, 0, 0, 1, 0, 1, 1, 0})
	targets := []int{0, 2}
	var first, last float64
	for it := 0; it < 200; it++ {
		tp := NewTape()
		loss := tp.CrossEntropy(tp.MatMul(x, w), targets)
		tp.Backward(loss)
		tp.MergeGrads()
		adam.Step()
		if it == 0 {
			first = float64(loss.Data[0])
		}
		last = float64(loss.Data[0])
	}
	if last >= first/10 {
		t.Errorf("Adam failed to optimize: first %f, last %f", first, last)
	}
}

func TestMergeGradsAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := NewParam(2, 2, rng)
	run := func() {
		tp := NewTape()
		loss := tp.CrossEntropy(w, []int{0, 1})
		tp.Backward(loss)
		tp.MergeGrads()
	}
	run()
	g0 := append([]float32{}, w.Grad...)
	run()
	for i := range g0 {
		if math.Abs(float64(w.Grad[i]-2*g0[i])) > 1e-5 {
			t.Fatalf("grad %d did not accumulate: %f vs %f", i, w.Grad[i], 2*g0[i])
		}
	}
}
