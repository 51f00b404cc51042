package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refDotInt8 is the scalar reference the SIMD path must match exactly.
func refDotInt8(a, b []int8) int32 {
	var acc int32
	for i := range a {
		acc += int32(a[i]) * int32(b[i])
	}
	return acc
}

func TestDotInt8MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 48, 100, 255, 256, 1000} {
		a := make([]int8, n)
		b := make([]int8, n)
		for i := range a {
			a[i] = int8(rng.Intn(255) - 127)
			b[i] = int8(rng.Intn(255) - 127)
		}
		if got, want := dotInt8(a, b), refDotInt8(a, b); got != want {
			t.Fatalf("n=%d: dotInt8=%d scalar=%d", n, got, want)
		}
	}
	// Saturation corners: ±127 everywhere, long enough to cross the
	// SIMD loop several times.
	n := 4096
	a := make([]int8, n)
	b := make([]int8, n)
	for i := range a {
		a[i], b[i] = 127, -127
	}
	if got, want := dotInt8(a, b), int32(-127*127*n); got != want {
		t.Fatalf("saturated: dotInt8=%d want %d", got, want)
	}
}

// TestDotInt8RowsMatchesScalar pins the batched 4-row kernel (and its
// row/k tails) to the scalar reference, exactly, across shapes that hit
// every combination of rows%4 and n%16.
func TestDotInt8RowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 48, 101} {
		for _, n := range []int{1, 15, 16, 17, 31, 48, 96, 100} {
			stride := n + rng.Intn(3) // rows may be wider than the dot depth
			b := make([]int8, rows*stride)
			a := make([]int8, n)
			for i := range a {
				a[i] = int8(rng.Intn(255) - 127)
			}
			for i := range b {
				b[i] = int8(rng.Intn(255) - 127)
			}
			acc := make([]int32, rows)
			dotInt8Rows(acc, a, b, rows, stride)
			for j := 0; j < rows; j++ {
				if want := refDotInt8(a, b[j*stride:j*stride+n]); acc[j] != want {
					t.Fatalf("rows=%d n=%d stride=%d j=%d: got %d want %d",
						rows, n, stride, j, acc[j], want)
				}
			}
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r, c := 9, 37
	src := make([]float32, r*c)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	// One all-zero row exercises the scale-0 branch.
	for j := 0; j < c; j++ {
		src[3*c+j] = 0
	}
	q := QuantizeRows(src, r, c)
	deq := Dequantize(q)
	for i := 0; i < r; i++ {
		var maxAbs float64
		for j := 0; j < c; j++ {
			if a := math.Abs(float64(src[i*c+j])); a > maxAbs {
				maxAbs = a
			}
		}
		// Round-to-nearest against a maxabs/127 grid: per-element
		// reconstruction error is at most half a step.
		bound := maxAbs/254 + 1e-7
		for j := 0; j < c; j++ {
			diff := math.Abs(float64(deq[i*c+j]) - float64(src[i*c+j]))
			if diff > bound {
				t.Fatalf("row %d col %d: |%g - %g| = %g > %g",
					i, j, deq[i*c+j], src[i*c+j], diff, bound)
			}
		}
	}
}

// TestQMatMulNTDifferentialFloat32 pins the quantization error bound the
// int8 path guarantees against the float32 kernel: each output element
// differs by at most 1.5·k·maxabs(a_row)·maxabs(b_row)/127 (per-operand
// rounding error of half a quantization step, summed over k terms).
func TestQMatMulNTDifferentialFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range []struct{ r, k, c int }{
		{1, 48, 64}, {7, 33, 5}, {16, 128, 16}, {3, 1, 3},
	} {
		a := make([]float32, sh.r*sh.k)
		b := make([]float32, sh.c*sh.k)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		want := make([]float32, sh.r*sh.c)
		MatMulNT(want, a, b, sh.r, sh.k, sh.c)
		got := make([]float32, sh.r*sh.c)
		QMatMulNT(got, QuantizeRows(a, sh.r, sh.k), QuantizeRows(b, sh.c, sh.k))
		for i := 0; i < sh.r; i++ {
			maxA := rowMaxAbs(a[i*sh.k : (i+1)*sh.k])
			for j := 0; j < sh.c; j++ {
				maxB := rowMaxAbs(b[j*sh.k : (j+1)*sh.k])
				bound := 1.5*float64(sh.k)*maxA*maxB/127 + 1e-6
				diff := math.Abs(float64(got[i*sh.c+j]) - float64(want[i*sh.c+j]))
				if diff > bound {
					t.Fatalf("%dx%dx%d (%d,%d): |%g - %g| = %g > %g",
						sh.r, sh.k, sh.c, i, j, got[i*sh.c+j], want[i*sh.c+j], diff, bound)
				}
			}
		}
	}
}

func rowMaxAbs(row []float32) float64 {
	var m float64
	for _, v := range row {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// TestQMatMulNTWorkerBitIdentity runs a shape past the parFlops gate so
// the parallel dispatch actually fans out, and requires byte-identical
// output for every worker count — the quantized kernels inherit the
// float32 contract.
func TestQMatMulNTWorkerBitIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(31))
	r, k, c := 64, 256, 256 // 64·256·256 = 4.2M flops > parFlops
	a := make([]float32, r*k)
	b := make([]float32, c*k)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	qa, qb := QuantizeRows(a, r, k), QuantizeRows(b, c, k)
	var ref []float32
	for _, w := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(w)
		dst := make([]float32, r*c)
		QMatMulNT(dst, qa, qb)
		if ref == nil {
			ref = dst
			continue
		}
		for i := range dst {
			if math.Float32bits(dst[i]) != math.Float32bits(ref[i]) {
				t.Fatalf("workers=%d: element %d differs: %x vs %x",
					w, i, math.Float32bits(dst[i]), math.Float32bits(ref[i]))
			}
		}
	}
}

func TestQMulRowIntoMatchesQMatMulNT(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	k, c := 48, 200
	a := make([]float32, k)
	b := make([]float32, c*k)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	qa, qb := QuantizeRows(a, 1, k), QuantizeRows(b, c, k)
	want := make([]float32, c)
	QMatMulNT(want, qa, qb)
	got := make([]float32, c)
	QMulRowInto(got, qa.Data, qa.Scale[0], qb)
	for j := range got {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("col %d: %g vs %g", j, got[j], want[j])
		}
	}
}

// TestScratchPoolRetainsUndersized is the getScratch regression test: an
// undersized pooled buffer must be re-Put (not silently dropped) when a
// larger request arrives, so the pool still serves the next small shape.
func TestScratchPoolRetainsUndersized(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for ntPool.Get() != nil { // drain anything earlier tests parked
	}
	small := make([]float32, 16, 16)
	ntPool.Put(&small)
	big := getScratch(1024)
	if cap(*big) < 1024 {
		t.Fatalf("getScratch(1024) returned cap %d", cap(*big))
	}
	v := ntPool.Get()
	if v == nil {
		t.Fatalf("undersized buffer was dropped from the pool on Get")
	}
	if got := *v.(*[]float32); cap(got) != cap(small) {
		t.Fatalf("pool returned cap %d, want the re-Put %d", cap(got), cap(small))
	}
}

// TestScratchAscendingSizesNoThrash covers the other half of the fix:
// without size-class rounding, ascending requests within one class each
// see cap(pooled) one element short and reallocate every call. With
// rounding (next power of two, min 256) the first allocation serves the
// whole sweep, so the byte churn collapses by ~two orders of magnitude.
func TestScratchAscendingSizesNoThrash(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for ntPool.Get() != nil {
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 257; n < 512; n++ { // one post-fix size class (512)
		ntPool.Put(getScratch(n)) // as MatMulNT does
	}
	runtime.ReadMemStats(&after)
	delta := after.TotalAlloc - before.TotalAlloc
	// Pre-fix this sweep reallocates every call: ~255 × ~385 floats
	// ≈ 390 KiB. Post-fix only the first call allocates (~2 KiB).
	if delta > 64<<10 {
		t.Fatalf("ascending getScratch sweep allocated %d bytes; pool is thrashing", delta)
	}
}

// TestMatMulNTScratchAllocatesNothing checks that the pooled transpose
// scratch costs MatMulNT no allocation once warm: the pool holds
// *[]float32 and gets back the pointer it handed out, so MatMulNT
// allocates exactly what the MatMul it wraps does.
func TestMatMulNTScratchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const r, k, c = 4, 6, 5
	a, b, dst := make([]float32, r*k), make([]float32, c*k), make([]float32, r*c)
	nt := testing.AllocsPerRun(100, func() { MatMulNT(dst, a, b, r, k, c) })
	mm := testing.AllocsPerRun(100, func() { MatMul(dst, a, b[:k*c], r, k, c) })
	if nt != mm {
		t.Fatalf("MatMulNT allocates %v times per call, the MatMul it wraps %v", nt, mm)
	}
}
