package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The block kernels — SoftmaxBlock and LayerNormRows — against the scalar
// loops they replaced in internal/model, by Float32bits on both kernel
// paths. `make test` also runs these at GOAMD64=v3.

// refSoftmaxBlock is attentionForward's per-row scale, causal mask and
// softmax as they were written before SoftmaxBlock.
func refSoftmaxBlock(p []float32, r, c int, scale float32, causal bool) {
	negInf := float32(math.Inf(-1))
	for i := 0; i < r; i++ {
		row := p[i*c : (i+1)*c]
		if causal {
			for j, x := range row {
				m := float32(0)
				if j > i {
					m = negInf
				}
				row[j] = float32(x*scale) + m
			}
		} else {
			for j, x := range row {
				row[j] = x * scale
			}
		}
		refSoftmaxRow(row)
	}
}

// refLayerNorm is layer norm's forward one row at a time: each row's
// mean and variance one ascending float32 chain, then
// (x−mean)·invstd·gain + bias.
func refLayerNorm(dst, src []float32, n int, gain, bias, means, invstd []float32) {
	c := len(gain)
	for i := 0; i < n; i++ {
		row := src[i*c : (i+1)*c]
		var mean float32
		for _, v := range row {
			mean += v
		}
		mean /= float32(c)
		var vr float32
		for _, v := range row {
			d := v - mean
			vr += d * d
		}
		vr /= float32(c)
		is := float32(1 / math.Sqrt(float64(vr)+1e-5))
		means[i], invstd[i] = mean, is
		for j, v := range row {
			dst[i*c+j] = (v-mean)*is*gain[j] + bias[j]
		}
	}
}

// blockSpecials are the values injected into generated blocks: signed
// zeros, subnormals, NaN, infinities, huge magnitudes and scores whose
// shifted exp falls in the replica's scalar-fallback band (−746, −708).
// The NaN is the one x86 arithmetic itself produces (∞ − ∞): where two
// different NaNs meet in an add, which one survives depends on the
// operand order the compiler picks for the scalar reference, and that
// differs between builds (it does under -race), so a second payload
// would test the compiler, not the kernel.
var blockSpecials = []float32{
	0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 1e-40, -3e-39,
	math.Float32frombits(0xffc00000), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.MaxFloat32, -math.MaxFloat32, 1e30, -1e30, -720, -745.5, -708.5,
}

// fillBlock fills xs with normal values at the given magnitude and, with
// probability special, a value from blockSpecials.
func fillBlock(xs []float32, rng *rand.Rand, mag, special float64) {
	for i := range xs {
		if rng.Float64() < special {
			xs[i] = blockSpecials[rng.Intn(len(blockSpecials))]
		} else {
			xs[i] = float32(rng.NormFloat64() * mag)
		}
	}
}

// checkSoftmaxBlock runs SoftmaxBlock and its reference on copies of src.
func checkSoftmaxBlock(t *testing.T, path string, src []float32, r, c int, scale float32, causal bool) {
	t.Helper()
	want := append([]float32(nil), src...)
	refSoftmaxBlock(want, r, c, scale, causal)
	got := append([]float32(nil), src...)
	SoftmaxBlock(got, r, c, scale, causal)
	equalBits(t, fmt.Sprintf("SoftmaxBlock(%d×%d, scale %v, causal %v, %s)", r, c, scale, causal, path), got, want)
}

func TestExactSoftmaxBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scales := []float32{float32(1 / math.Sqrt(12)), 1, 0.125, 3}
	type block struct {
		src   []float32
		r, c  int
		scale float32
	}
	var blocks []block
	// Ragged shapes: every row length 0–70 (across the 4- and 8-lane
	// seams), row counts across the 8-row sum groups.
	for c := 0; c <= 70; c++ {
		for _, r := range []int{0, 1, 3, 8, 9, 17} {
			for k, mag := range []float64{1, 30, 400} {
				src := make([]float32, r*c)
				fillBlock(src, rng, mag, []float64{0, 0.02, 0.15}[k])
				blocks = append(blocks, block{src, r, c, scales[rng.Intn(len(scales))]})
			}
		}
	}
	// Rows that are all −Inf, all NaN, all one special, or mix an
	// infinity with finite scores.
	for _, v := range blockSpecials {
		for _, c := range []int{1, 5, 12, 33} {
			src := make([]float32, 3*c)
			for j := range src {
				src[j] = v
			}
			src[2*c] = 1 // the last row mixes v with a finite score
			blocks = append(blocks, block{src, 3, c, 1})
		}
	}
	for r := 1; r <= 20; r++ {
		src := make([]float32, r*r)
		fillBlock(src, rng, 3, 0.05)
		blocks = append(blocks, block{src, r, r, scales[0]})
	}
	eachKernelPath(func(path string) {
		for _, b := range blocks {
			checkSoftmaxBlock(t, path, b.src, b.r, b.c, b.scale, false)
			checkSoftmaxBlock(t, path, b.src, b.r, b.c, b.scale, true)
		}
	})
}

// checkLayerNorm runs LayerNormRows and its reference on n rows of src,
// out of place and in place, means and invstd included.
func checkLayerNorm(t *testing.T, path string, src []float32, n int, gain, bias []float32) {
	t.Helper()
	c := len(gain)
	want := make([]float32, n*c)
	wantM, wantS := make([]float32, n), make([]float32, n)
	refLayerNorm(want, src, n, gain, bias, wantM, wantS)
	got := make([]float32, n*c)
	gotM, gotS := make([]float32, n), make([]float32, n)
	name := fmt.Sprintf("LayerNormRows(%d×%d, %s)", n, c, path)
	LayerNormRows(got, src, n, gain, bias, gotM, gotS)
	equalBits(t, name, got, want)
	equalBits(t, name+" means", gotM, wantM)
	equalBits(t, name+" invstd", gotS, wantS)
	copy(got, src[:n*c])
	LayerNormRows(got, got, n, gain, bias, nil, nil)
	equalBits(t, name+" in place", got, want)
}

func TestExactLayerNormRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	eachKernelPath(func(path string) {
		for _, c := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 47, 48, 49, 63, 64, 65, 96} {
			gain, bias := make([]float32, c), make([]float32, c)
			fillBlock(gain, rng, 1, 0.05)
			fillBlock(bias, rng, 0.1, 0.05)
			for n := 0; n <= 9; n++ {
				for k, mag := range []float64{1, 1e3} {
					src := make([]float32, n*c)
					fillBlock(src, rng, mag, []float64{0, 0.1}[k])
					checkLayerNorm(t, path, src, n, gain, bias)
				}
			}
		}
	})
}

// FuzzBlockKernelsAgainstScalar checks SoftmaxBlock (masked and not) and
// LayerNormRows against their scalar references by Float32bits on a
// rows×cols block (up to 11×40) of an arithmetic run base, base+step, …,
// with one element replaced by a special value, on both kernel paths.
func FuzzBlockKernelsAgainstScalar(f *testing.F) {
	f.Add(float32(-1), float32(0.1), uint8(3), uint8(7), uint8(0), uint8(0))
	f.Add(float32(0), float32(0), uint8(1), uint8(1), uint8(1), uint8(6))
	f.Add(float32(-746), float32(1), uint8(9), uint8(33), uint8(2), uint8(16))
	f.Add(float32(-720), float32(-3), uint8(8), uint8(12), uint8(3), uint8(8))
	f.Add(float32(1e30), float32(-1e29), uint8(10), uint8(40), uint8(0), uint8(9))
	f.Add(float32(1e-40), float32(1e-41), uint8(2), uint8(17), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, base, step float32, rows, cols, scaleSel, special uint8) {
		r, c := int(rows%12), int(cols%41)
		// One NaN payload only, as in blockSpecials.
		if base != base {
			base = blockSpecials[6]
		}
		if step != step {
			step = blockSpecials[6]
		}
		src := make([]float32, r*c)
		for i := range src {
			src[i] = base + float32(i)*step
		}
		if len(src) > 0 && int(special) < len(blockSpecials) {
			src[int(special)*7%len(src)] = blockSpecials[special]
		}
		scale := []float32{float32(1 / math.Sqrt(12)), 1, 0.125, 3}[scaleSel%4]
		gain, bias := make([]float32, c), make([]float32, c)
		for j := range gain {
			gain[j] = 1 + float32(j)*step
			bias[j] = base * float32(j%3)
		}
		eachKernelPath(func(path string) {
			checkSoftmaxBlock(t, path, src, r, c, scale, false)
			checkSoftmaxBlock(t, path, src, r, c, scale, true)
			checkLayerNorm(t, path, src, r, gain, bias)
		})
	})
}
