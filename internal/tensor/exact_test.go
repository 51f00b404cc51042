package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The scalar formulas the exact row kernels replace, kept verbatim as
// their references: every kernel must match them by Float32bits or
// Float64bits, on both kernel paths. `make test` also runs these tests
// at GOAMD64=v3, the level that makes FMA available to the compiler.

func refSoftmaxRow(row []float32) {
	maxv := float32(math.Inf(-1))
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for j, v := range row {
		e := float32(math.Exp(float64(v - maxv)))
		row[j] = e
		sum += e
	}
	if sum > 0 {
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

func refGELU(v float32) (y, d float32) {
	const c0 = 0.7978845608028654 // sqrt(2/pi)
	x := float64(v)
	t := math.Tanh(c0 * (x + 0.044715*x*x*x))
	y = float32(0.5 * x * (1 + t))
	d = float32(0.5*(1+t) + 0.5*x*(1-t*t)*c0*(1+3*0.044715*x*x))
	return y, d
}

func refLogProb(logits []float32, idx int) float64 {
	maxv := float32(math.Inf(-1))
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v - maxv))
	}
	return float64(logits[idx]-maxv) - math.Log(sum)
}

// refLogZ is the tape cross-entropy's per-row forward.
func refLogZ(probs, row []float32) float64 {
	maxv := float32(math.Inf(-1))
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range row {
		sum += math.Exp(float64(v - maxv))
	}
	logZ := math.Log(sum) + float64(maxv)
	for j, v := range row {
		probs[j] = float32(math.Exp(float64(v) - logZ))
	}
	return logZ
}

// refSoftmaxXentRow is SoftmaxXent's per-row forward before it moved onto
// ExpInto.
func refSoftmaxXentRow(prow, row []float32, target int) float64 {
	maxv := float32(math.Inf(-1))
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range row {
		e := math.Exp(float64(v - maxv))
		prow[j] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for j := range prow {
		prow[j] *= inv
	}
	return math.Log(sum) + float64(maxv) - float64(row[target])
}

func equalBits64(t *testing.T, kernel string, got, want []float64, src []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d of %d (x = %v, bits %x) = %v (bits %x), want %v (bits %x)",
				kernel, i, len(want), src[i], math.Float64bits(src[i]),
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// expSpecials are the exp inputs at and around every class boundary of
// the replica and of math.Exp's own branches.
var expSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
	-708, 709, math.Nextafter(-708, -1000), math.Nextafter(709, 1000),
	-746, math.Nextafter(-746, 0), -745.1, -745.2, -740, -720,
	709.78, 709.7827128933840, 7.09782712893384e+02, 710, -1000, 1000,
	0.625, 1.25, 0.5 * 8.8029691931113054295988e+01, 8.8029691931113054295988e+01,
	4.9406564584124654e-324, -4.9406564584124654e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300, 1e-300,
	math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff0000000000001),
}

// expInputs is the differential corpus: the specials, a dense sweep over
// [-750, 712], and random bit patterns.
func expInputs() []float64 {
	xs := append([]float64(nil), expSpecials...)
	for x := -750.0; x <= 712; x += 0.0137 {
		xs = append(xs, x)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1<<16; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
		xs = append(xs, rng.NormFloat64()*30)
	}
	return xs
}

func TestExactExpInto(t *testing.T) {
	src := expInputs()
	want := make([]float64, len(src))
	for i, x := range src {
		want[i] = math.Exp(x)
	}
	eachKernelPath(func(path string) {
		got := make([]float64, len(src))
		ExpInto(got, src)
		equalBits64(t, "ExpInto("+path+")", got, want, src)
		// In place, and at every offset and length around the 4-lane
		// chunk and the padded tail.
		for off := 0; off < 8; off++ {
			for n := 0; n <= 13; n++ {
				s := src[off*97 : off*97+n]
				buf := append([]float64(nil), s...)
				ExpInto(buf, buf)
				equalBits64(t, "ExpInto(in place, "+path+")", buf, want[off*97:off*97+n], s)
			}
		}
	})
}

// gelu32Inputs spans the GELU pre-activations: a strided walk over every
// float32 in [-16, 16], the regions where u = c0·(x+0.044715x³) crosses
// math.tanh's 0.625 and 0.5·MAXLOG thresholds, and specials.
func gelu32Inputs() []float32 {
	xs := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 1e-30, -1e-30, 1e-45, -1e-45,
		math.MaxFloat32, -math.MaxFloat32, 100, -100,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for b := math.Float32bits(16); ; b -= 1021 {
		xs = append(xs, math.Float32frombits(b), -math.Float32frombits(b))
		if b < 1021 {
			break
		}
	}
	for _, c := range []float32{0.75, 0.77, 10.0, 10.05} {
		b := math.Float32bits(c)
		for d := uint32(0); d < 1<<14; d++ {
			xs = append(xs, math.Float32frombits(b-1<<13+d), -math.Float32frombits(b-1<<13+d))
		}
	}
	return xs
}

func TestExactGELURow(t *testing.T) {
	src := gelu32Inputs()
	wantY := make([]float32, len(src))
	wantD := make([]float32, len(src))
	for i, v := range src {
		wantY[i], wantD[i] = refGELU(v)
	}
	eachKernelPath(func(path string) {
		y := make([]float32, len(src))
		d := make([]float32, len(src))
		GELURow(y, src, d)
		equalBits(t, "GELURow(y, "+path+")", y, wantY)
		equalBits(t, "GELURow(deriv, "+path+")", d, wantD)
		for n := 0; n <= 13; n++ {
			buf := append([]float32(nil), src[n*31:n*31+n]...)
			GELURow(buf, buf, nil)
			equalBits(t, "GELURow(in place, "+path+")", buf, wantY[n*31:n*31+n])
		}
	})
}

// softmaxRows builds rows of every length up to 70 with a mix of scales,
// -Inf (masked) entries, huge and NaN values.
func softmaxRows(rng *rand.Rand) [][]float32 {
	var rows [][]float32
	for n := 0; n <= 70; n++ {
		for _, scale := range []float64{1, 30, 400, 1e5} {
			row := make([]float32, n)
			for j := range row {
				row[j] = float32(rng.NormFloat64() * scale)
				if rng.Intn(7) == 0 {
					row[j] = float32(math.Inf(-1))
				}
			}
			rows = append(rows, row)
		}
	}
	inf := float32(math.Inf(1))
	ninf := float32(math.Inf(-1))
	nan := float32(math.NaN())
	rows = append(rows,
		[]float32{ninf, ninf, ninf, ninf, ninf},
		[]float32{1, inf, 2, 3, 4, 5},
		[]float32{1, nan, 2, 3, 4, 5, 6, 7, 8},
		[]float32{-800, 0, -720, -746, -745.5, -708, -707.9, 0.5, -3},
		[]float32{-1000, -1000, -1000, -1000, -1000, -1000, -1000},
		[]float32{math.MaxFloat32, -math.MaxFloat32, 0, 1},
	)
	return rows
}

func TestExactSoftmaxKernels(t *testing.T) {
	rows := softmaxRows(rand.New(rand.NewSource(7)))
	eachKernelPath(func(path string) {
		for ri, row := range rows {
			checkSoftmaxKernels(t, path, ri, row)
		}
	})
}

// checkSoftmaxKernels checks SoftmaxRow, SoftmaxNorm, SoftmaxLogZ and
// SoftmaxXent on one row against their scalar references.
func checkSoftmaxKernels(t *testing.T, path string, ri int, row []float32) {
	t.Helper()
	want := append([]float32(nil), row...)
	refSoftmaxRow(want)
	got := make([]float32, len(row))
	SoftmaxRow(got, row)
	equalBits(t, "SoftmaxRow("+path+")", got, want)
	copy(got, row)
	SoftmaxRow(got, got)
	equalBits(t, "SoftmaxRow(in place, "+path+")", got, want)
	if len(row) == 0 {
		return
	}
	maxv, logSum := SoftmaxNorm(row)
	wantP := make([]float32, len(row))
	wantZ := refLogZ(wantP, row)
	gotZ := SoftmaxLogZ(got, row)
	equalBits(t, "SoftmaxLogZ(probs, "+path+")", got, wantP)
	if math.Float64bits(gotZ) != math.Float64bits(wantZ) {
		t.Fatalf("row %d: SoftmaxLogZ(%s) = %v, want %v", ri, path, gotZ, wantZ)
	}
	for j := range row {
		gotLP := float64(row[j]-maxv) - logSum
		if wantLP := refLogProb(row, j); math.Float64bits(gotLP) != math.Float64bits(wantLP) {
			t.Fatalf("row %d: log-prob %d via SoftmaxNorm(%s) = %v, want %v", ri, j, path, gotLP, wantLP)
		}
	}
	target := len(row) / 2
	nll := make([]float64, 1)
	SoftmaxXent(got, row, []int{target}, 1, len(row), nll)
	wantNLL := refSoftmaxXentRow(wantP, row, target)
	equalBits(t, "SoftmaxXent(probs, "+path+")", got, wantP)
	if math.Float64bits(nll[0]) != math.Float64bits(wantNLL) {
		t.Fatalf("row %d: SoftmaxXent(%s) nll = %v, want %v", ri, path, nll[0], wantNLL)
	}
}

func TestExactKernelsDoNotAllocate(t *testing.T) {
	row := make([]float32, 133)
	fill(row, rand.New(rand.NewSource(1)), 0.1)
	out := make([]float32, len(row))
	deriv := make([]float32, len(row))
	xs := make([]float64, len(row))
	nll := make([]float64, 1)
	eachKernelPath(func(path string) {
		allocs := testing.AllocsPerRun(20, func() {
			ExpInto(xs, xs)
			SoftmaxRow(out, row)
			GELURow(out, row, deriv)
			SoftmaxNorm(row)
			SoftmaxLogZ(out, row)
			SoftmaxXent(out, row, []int{3}, 1, len(row), nll)
		})
		if allocs != 0 {
			t.Errorf("%s: exact row kernels allocate %v times per call set", path, allocs)
		}
	})
}

// FuzzExpIntoAgainstMathExp checks ExpInto against math.Exp by
// Float64bits on an arithmetic run base, base+step, … of 0–9 elements,
// in place and not, on both kernel paths.
func FuzzExpIntoAgainstMathExp(f *testing.F) {
	for _, x := range expSpecials {
		f.Add(x, 0.0, uint8(5))
	}
	f.Add(-746.0, 1.0, uint8(9))
	f.Add(-709.0, 0.25, uint8(7))
	f.Add(708.0, 0.25, uint8(8))
	f.Add(-1.0, 0.3, uint8(4))
	f.Add(0.0, 4.9406564584124654e-324, uint8(6))
	for n := uint8(0); n <= 9; n++ {
		f.Add(0.625, -0.1, n)
	}
	f.Fuzz(func(t *testing.T, base, step float64, n uint8) {
		src := make([]float64, n%10)
		want := make([]float64, len(src))
		for i := range src {
			src[i] = base + float64(i)*step
			want[i] = math.Exp(src[i])
		}
		eachKernelPath(func(path string) {
			got := make([]float64, len(src))
			ExpInto(got, src)
			equalBits64(t, "ExpInto("+path+")", got, want, src)
			copy(got, src)
			ExpInto(got, got)
			equalBits64(t, "ExpInto(in place, "+path+")", got, want, src)
		})
	})
}

// FuzzRowKernelsAgainstScalar checks GELURow (value and derivative) and
// the softmax kernels against the scalar formulas by Float32bits and
// Float64bits on an arithmetic run of 0–9 float32 elements.
func FuzzRowKernelsAgainstScalar(f *testing.F) {
	for _, x := range []float32{0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 0.75, -0.77, 10.03, -10.05,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32} {
		f.Add(x, float32(0), uint8(5))
	}
	f.Add(float32(-746), float32(1), uint8(9))
	f.Add(float32(-720), float32(-5), uint8(7))
	f.Add(float32(0.7), float32(0.01), uint8(9))
	f.Add(float32(9.9), float32(0.03), uint8(9))
	for n := uint8(0); n <= 9; n++ {
		f.Add(float32(-2), float32(0.5), n)
	}
	f.Fuzz(func(t *testing.T, base, step float32, n uint8) {
		src := make([]float32, n%10)
		wantY := make([]float32, len(src))
		wantD := make([]float32, len(src))
		for i := range src {
			src[i] = base + float32(i)*step
			wantY[i], wantD[i] = refGELU(src[i])
		}
		eachKernelPath(func(path string) {
			y := make([]float32, len(src))
			d := make([]float32, len(src))
			GELURow(y, src, d)
			equalBits(t, "GELURow(y, "+path+")", y, wantY)
			equalBits(t, "GELURow(deriv, "+path+")", d, wantD)
			checkSoftmaxKernels(t, path, 0, src)
		})
	})
}

func BenchmarkExactRowKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	row := make([]float32, 1024)
	fill(row, rng, 0)
	xs := make([]float64, len(row))
	for i := range xs {
		xs[i] = float64(row[i]) - 3
	}
	out := make([]float32, len(row))
	deriv := make([]float32, len(row))
	dst := make([]float64, len(xs))
	eachKernelPath(func(path string) {
		b.Run("exp/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ExpInto(dst, xs)
			}
		})
		b.Run("softmax/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SoftmaxRow(out, row)
			}
		})
		b.Run("gelu/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GELURow(out, row, nil)
			}
		})
		b.Run("gelu+deriv/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GELURow(out, row, deriv)
			}
		})
		b.Run("norm/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SoftmaxNorm(row)
			}
		})
	})
}
