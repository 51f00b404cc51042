package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// naiveMatMul is the reference triple loop with the zero-skip: each
// output element receives its nonzero terms in ascending-k order, one
// rounding per term. The blocked kernels must match it bit for bit.
func naiveMatMul(out, a, b []float32, r, k, c int) {
	for i := 0; i < r; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < c; j++ {
				out[i*c+j] += av * b[p*c+j]
			}
		}
	}
}

// naiveMatMulNT mirrors the kernel's contract semantics: materialize bᵀ
// and run the naive skip-on-zero matmul, so every element's nonzero
// terms add in ascending-k order with one rounding each.
func naiveMatMulNT(dst, a, b []float32, r, k, c int) {
	bt := make([]float32, k*c)
	for j := 0; j < c; j++ {
		for p := 0; p < k; p++ {
			bt[p*c+j] = b[j*k+p]
		}
	}
	naiveMatMul(dst, a, bt, r, k, c)
}

func naiveMatMulTN(dst, a, b []float32, r, r2, c int) {
	for p := 0; p < r2; p++ {
		for i := 0; i < r; i++ {
			av := a[p*r+i]
			if av == 0 {
				continue
			}
			for j := 0; j < c; j++ {
				dst[i*c+j] += av * b[p*c+j]
			}
		}
	}
}

// fill populates xs with a deterministic mix of values including exact
// zeros (zeroFrac of them), so the zero-skip paths are exercised.
func fill(xs []float32, rng *rand.Rand, zeroFrac float64) {
	for i := range xs {
		if rng.Float64() < zeroFrac {
			xs[i] = 0
		} else {
			xs[i] = float32(rng.NormFloat64())
		}
	}
}

// kernelShapes are the output widths tested: the sizes around the row
// kernel's 8-lane vectors, 16- and 48-column blocks and masked tail,
// plus other odd sizes. termShapes, a subset, are the row and term
// counts, in which the only boundary is the parallel gate.
var kernelShapes = []int{1, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 47, 48, 49, 63, 64, 65, 95, 96, 97, 133}

var termShapes = []int{1, 3, 4, 5, 13, 63, 64, 65, 133}

// eachKernelPath calls f once per kernel implementation, named by
// path: the pure-Go loops with useAVX2 forced off, then the AVX2
// assembly where the CPU has it.
func eachKernelPath(f func(path string)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	useAVX2 = false
	f("go")
	if saved {
		useAVX2 = true
		f("avx2")
	}
}

// dotColumns accumulates out[j] += a[p]·b[j*rows+off+p] for j < outer,
// p < cols — a row times the transpose of a sub-matrix of b, in the term
// order MatMul(a, Transpose(b)) produces after materializing the
// transpose (ascending p per element, zero terms skipped). Four output
// lanes share each pass over a. It is the strided score path the
// transposed-key attention replaced, kept as its reference.
func dotColumns(out, a, b []float32, outer, rows, off, cols int) {
	a = a[:cols]
	j := 0
	for ; j+4 <= outer; j += 4 {
		r0 := b[j*rows+off:]
		r1 := b[(j+1)*rows+off:]
		r2 := b[(j+2)*rows+off:]
		r3 := b[(j+3)*rows+off:]
		var s0, s1, s2, s3 float32
		for p, av := range a {
			if av == 0 {
				continue
			}
			s0 += av * r0[p]
			s1 += av * r1[p]
			s2 += av * r2[p]
			s3 += av * r3[p]
		}
		out[j] += s0
		out[j+1] += s1
		out[j+2] += s2
		out[j+3] += s3
	}
	for ; j < outer; j++ {
		row := b[j*rows+off:]
		var s float32
		for p, av := range a {
			if av == 0 {
				continue
			}
			s += av * row[p]
		}
		out[j] += s
	}
}

func equalBits(t *testing.T, kernel string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				kernel, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestBlockedKernelsMatchNaive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	eachKernelPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for _, w := range []int{1, 3, 8} {
				runtime.GOMAXPROCS(w)
				for _, r := range termShapes {
					for _, k := range termShapes {
						for _, c := range kernelShapes {
							if w > 1 && r*k*c < parFlops {
								continue // serial below the gate: same run as w=1
							}
							checkMatMulFamily(t, rng, r, k, c)
						}
					}
				}
			}
		})
	})
}

// checkMatMulFamily runs MatMul, MatMulNT (into a nonzero destination)
// and MatMulTN at one shape against the naive references.
func checkMatMulFamily(t *testing.T, rng *rand.Rand, r, k, c int) {
	t.Helper()
	a := make([]float32, r*k)
	b := make([]float32, k*c)
	bt := make([]float32, c*k)
	at := make([]float32, k*r)
	fill(a, rng, 0.2)
	fill(b, rng, 0.1)
	fill(bt, rng, 0.1)
	fill(at, rng, 0.2)

	got := make([]float32, r*c)
	want := make([]float32, r*c)
	MatMul(got, a, b, r, k, c)
	naiveMatMul(want, a, b, r, k, c)
	equalBits(t, "MatMul", got, want)

	// Accumulation into a nonzero destination.
	fill(got, rng, 0)
	copy(want, got)
	MatMulNT(got, a, bt, r, k, c)
	naiveMatMulNT(want, a, bt, r, k, c)
	equalBits(t, "MatMulNT", got, want)

	clear(got)
	clear(want)
	MatMulTN(got, at, b, r, k, c)
	naiveMatMulTN(want, at, b, r, k, c)
	equalBits(t, "MatMulTN", got, want)
}

// specialValues are the left-operand values the zero-skip decides on:
// both zeros (skipped), and NaN, both infinities and subnormals (never
// skipped, although a float comparison or a sloppy bit test could
// treat a subnormal or NaN as zero). The NaN is the one the CPU makes
// for Inf·0: Go leaves unspecified which payload NaN+NaN keeps, and the
// compiler orders commutative operands freely, so only a single NaN
// pattern keeps every result bit-exact.
var specialValues = []float32{
	0,
	float32(math.Copysign(0, -1)),
	mulNoFold(float32(math.Inf(1)), 0),
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	math.Float32frombits(0x00000001), // smallest positive subnormal
	math.Float32frombits(0x807fffff), // negative subnormal, largest magnitude
	math.Float32frombits(0x00400000), // mid-range subnormal
}

//go:noinline
func mulNoFold(x, y float32) float32 { return x * y }

// fillSpecial is fill with a specialFrac share of specialValues mixed in.
func fillSpecial(xs []float32, rng *rand.Rand, specialFrac float64) {
	fill(xs, rng, 0)
	for i := range xs {
		if rng.Float64() < specialFrac {
			xs[i] = specialValues[rng.Intn(len(specialValues))]
		}
	}
}

// negZeros returns n copies of -0: a destination in which adding a
// skipped ±0 term flips the sign bit of an element (-0 + +0 = +0), so a
// kernel that adds a term the reference skips is caught.
func negZeros(n int) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(math.Copysign(0, -1))
	}
	return xs
}

// TestKernelsSpecialLeftOperands pins the zero-skip at the bit level:
// left operands with ±0, NaN, ±Inf and subnormals, right operands with
// exact zeros (so ±Inf·0 yields NaN), accumulated into -0.
func TestKernelsSpecialLeftOperands(t *testing.T) {
	eachKernelPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for _, r := range []int{1, 3} {
				for _, k := range kernelShapes {
					for _, c := range kernelShapes {
						a := make([]float32, r*k)
						at := make([]float32, k*r)
						b := make([]float32, k*c)
						bt := make([]float32, c*k)
						fillSpecial(a, rng, 0.1)
						fillSpecial(at, rng, 0.1)
						fill(b, rng, 0.2)
						fill(bt, rng, 0.2)

						got, want := negZeros(r*c), negZeros(r*c)
						MatMul(got, a, b, r, k, c)
						naiveMatMul(want, a, b, r, k, c)
						equalBits(t, "MatMul(special)", got, want)

						got, want = negZeros(r*c), negZeros(r*c)
						MatMulNT(got, a, bt, r, k, c)
						naiveMatMulNT(want, a, bt, r, k, c)
						equalBits(t, "MatMulNT(special)", got, want)

						got, want = negZeros(r*c), negZeros(r*c)
						MatMulTN(got, at, b, r, k, c)
						naiveMatMulTN(want, at, b, r, k, c)
						equalBits(t, "MatMulTN(special)", got, want)

						got, want = negZeros(c), negZeros(c)
						MulRowInto(got, a[:k], b, k, c, c, 0)
						naiveMatMul(want, a[:k], b, 1, k, c)
						equalBits(t, "MulRowInto(special)", got, want)
					}
				}
			}
		})
	})
}

// TestParallelDispatchAboveGate forces shapes across the parFlops gate
// and checks worker counts cannot change a single bit.
func TestParallelDispatchAboveGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	eachKernelPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			r, k, c := 160, 96, 160 // r*k*c ≈ 2.4M > parFlops
			rng := rand.New(rand.NewSource(7))
			a := make([]float32, r*k)
			b := make([]float32, k*c)
			fill(a, rng, 0.15)
			fill(b, rng, 0)
			runtime.GOMAXPROCS(1)
			want := make([]float32, r*c)
			MatMul(want, a, b, r, k, c)
			for _, w := range []int{2, 5, 16} {
				runtime.GOMAXPROCS(w)
				got := make([]float32, r*c)
				MatMul(got, a, b, r, k, c)
				equalBits(t, "MatMul(parallel)", got, want)
			}
		})
	})
}

func TestMulRowIntoMatchesMatMulRow(t *testing.T) {
	eachKernelPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			for _, k := range kernelShapes {
				for _, c := range kernelShapes {
					checkMulRowInto(t, rng, k, c)
				}
			}
		})
	})
}

// checkMulRowInto runs MulRowInto over a whole k×c matrix and over a
// strided column window of it against the naive references.
func checkMulRowInto(t *testing.T, rng *rand.Rand, k, c int) {
	t.Helper()
	a := make([]float32, k)
	b := make([]float32, k*c)
	fill(a, rng, 0.2)
	fill(b, rng, 0)
	got := make([]float32, c)
	want := make([]float32, c)
	MulRowInto(got, a, b, k, c, c, 0)
	naiveMatMul(want, a, b, 1, k, c)
	equalBits(t, "MulRowInto", got, want)

	// Strided sub-matrix: columns [off, off+cols) of a wider b.
	if c > 2 {
		off, cols := 1, c-2
		gotS := make([]float32, cols)
		wantS := make([]float32, cols)
		for p := 0; p < k; p++ {
			if av := a[p]; av != 0 {
				for j := 0; j < cols; j++ {
					wantS[j] += av * b[p*c+off+j]
				}
			}
		}
		MulRowInto(gotS, a, b, k, cols, c, off)
		equalBits(t, "MulRowInto(strided)", gotS, wantS)
	}
}

// checkMatMulStrided runs MatMulStrided with a r×k read row-major
// (colMajor false) or column-major from a padded buffer, b k×c with a
// padded row stride, and out r×c inside padded rows that start nonzero,
// against the naive loop: ascending p, zero-skip on a.
func checkMatMulStrided(t *testing.T, rng *rand.Rand, r, k, c int, colMajor bool) {
	t.Helper()
	ars, acs := k+2, 1
	if colMajor {
		ars, acs = 1, r+3
	}
	ldb, ldo := c+5, c+1
	a := make([]float32, r*ars+k*acs)
	b := make([]float32, k*ldb)
	fill(a, rng, 0.3)
	fill(b, rng, 0.1)
	got := make([]float32, r*ldo)
	fill(got, rng, 0)
	want := append([]float32(nil), got...)
	for i := 0; i < r; i++ {
		for p := 0; p < k; p++ {
			av := a[i*ars+p*acs]
			if av == 0 {
				continue
			}
			for j := 0; j < c; j++ {
				want[i*ldo+j] += av * b[p*ldb+j]
			}
		}
	}
	MatMulStrided(got, ldo, a, ars, acs, b, ldb, r, k, c)
	equalBits(t, "MatMulStrided", got, want)
}

func TestMatMulStridedMatchesNaive(t *testing.T) {
	eachKernelPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			for _, r := range []int{1, 3, 12, 35} {
				for _, k := range kernelShapes {
					for _, c := range kernelShapes {
						checkMatMulStrided(t, rng, r, k, c, false)
						checkMatMulStrided(t, rng, r, k, c, true)
					}
				}
			}
		})
	})
}

func TestDotColumnsMatchesTransposedMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, outer := range kernelShapes {
		for _, dh := range []int{1, 3, 8, 16} {
			stride := dh + 5 // K rows wider than the head slice
			off := 2
			q := make([]float32, dh)
			kmat := make([]float32, outer*stride)
			fill(q, rng, 0.2)
			fill(kmat, rng, 0)
			want := make([]float32, outer)
			// Reference: materialize the transpose, run the naive kernel.
			bt := make([]float32, dh*outer)
			for j := 0; j < outer; j++ {
				for p := 0; p < dh; p++ {
					bt[p*outer+j] = kmat[j*stride+off+p]
				}
			}
			naiveMatMul(want, q, bt, 1, dh, outer)
			got := make([]float32, outer)
			dotColumns(got, q, kmat, outer, stride, off, dh)
			equalBits(t, "dotColumns", got, want)
		}
	}
}

func FuzzMatMulAgainstNaive(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(4))
	f.Add(int64(9), uint8(1), uint8(1), uint8(1))
	f.Add(int64(42), uint8(13), uint8(7), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, rr, kk, cc uint8) {
		r, k, c := int(rr%24)+1, int(kk%24)+1, int(cc%24)+1
		eachKernelPath(func(path string) {
			rng := rand.New(rand.NewSource(seed))
			a := make([]float32, r*k)
			b := make([]float32, k*c)
			fill(a, rng, 0.3)
			fill(b, rng, 0.1)
			got := make([]float32, r*c)
			want := make([]float32, r*c)
			MatMul(got, a, b, r, k, c)
			naiveMatMul(want, a, b, r, k, c)
			equalBits(t, "MatMul(fuzz, "+path+")", got, want)

			gotNT := make([]float32, r*k)
			wantNT := make([]float32, r*k)
			// dst r×k += (r×c)·(k×c)ᵀ reuses got as a and b as bᵀ-shaped input.
			MatMulNT(gotNT, got, b, r, c, k)
			naiveMatMulNT(wantNT, got, b, r, c, k)
			equalBits(t, "MatMulNT(fuzz, "+path+")", gotNT, wantNT)

			gotTN := make([]float32, k*c)
			wantTN := make([]float32, k*c)
			MatMulTN(gotTN, a, got, k, r, c)
			naiveMatMulTN(wantTN, a, got, k, r, c)
			equalBits(t, "MatMulTN(fuzz, "+path+")", gotTN, wantTN)

			checkMatMulStrided(t, rng, r, k, c, seed%2 == 0)
		})
	})
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

func TestArenaAllocZeroesReusedMemory(t *testing.T) {
	var a Arena
	s1 := a.Alloc(100)
	for i := range s1 {
		s1[i] = 7
	}
	a.Reset()
	s2 := a.Alloc(100)
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("reused Alloc not zeroed at %d: %v", i, v)
		}
	}
	// Same backing memory must have been handed out again.
	s2[0] = 9
	if s1[0] != 9 {
		t.Error("Reset did not rewind to the same chunk")
	}
}

// footprint is the total floats held across an arena's chunks.
func footprint(a *Arena) int {
	n := 0
	for _, ch := range a.chunks {
		n += len(ch)
	}
	return n
}

func TestArenaGrowth(t *testing.T) {
	var a Arena
	big := a.Alloc(3 * arenaMinChunk)
	if len(big) != 3*arenaMinChunk {
		t.Fatalf("big alloc length %d", len(big))
	}
	small := a.AllocNoZero(8)
	if len(small) != 8 {
		t.Fatalf("small alloc length %d", len(small))
	}
	fp := footprint(&a)
	a.Reset()
	for i := 0; i < 100; i++ {
		a.Alloc(arenaMinChunk / 2)
		a.Reset()
	}
	if got := footprint(&a); got != fp {
		t.Errorf("footprint grew across Reset cycles: %d -> %d", fp, got)
	}
	// Append beyond an allocation's length must not clobber its neighbor.
	a.Reset()
	first := a.Alloc(4)
	second := a.Alloc(4)
	_ = append(first, 99)
	if second[0] != 0 {
		t.Error("append to a full arena slice overwrote the next allocation")
	}
}

func TestSoftmaxXentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r, c := 9, 37
	logits := make([]float32, r*c)
	fill(logits, rng, 0)
	targets := make([]int, r)
	for i := range targets {
		targets[i] = rng.Intn(c)
	}
	targets[2], targets[6] = -1, -1 // padding rows

	probs := make([]float32, r*c)
	rowNLL := make([]float64, r)
	SoftmaxXent(probs, logits, targets, r, c, rowNLL)

	for i := 0; i < r; i++ {
		row := logits[i*c : (i+1)*c]
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
		if targets[i] < 0 {
			if rowNLL[i] != 0 {
				t.Errorf("padding row %d nll = %v, want 0", i, rowNLL[i])
			}
			continue
		}
		wantNLL := logZ - float64(row[targets[i]])
		if math.Abs(rowNLL[i]-wantNLL) > 1e-9 {
			t.Errorf("row %d nll = %v, want %v", i, rowNLL[i], wantNLL)
		}
		var psum float64
		for j := 0; j < c; j++ {
			p := float64(probs[i*c+j])
			want := math.Exp(float64(row[j]) - logZ)
			if math.Abs(p-want) > 1e-6 {
				t.Errorf("row %d prob %d = %v, want %v", i, j, p, want)
			}
			psum += p
		}
		if math.Abs(psum-1) > 1e-5 {
			t.Errorf("row %d probs sum to %v", i, psum)
		}
	}

	// Backward: finite-difference check on a couple of elements.
	weights := make([]float32, r)
	for i := range weights {
		weights[i] = 0.25
	}
	grad := make([]float32, r*c)
	XentBackward(grad, probs, targets, r, c, 1, weights)
	lossAt := func(ls []float32) float64 {
		p2 := make([]float32, r*c)
		n2 := make([]float64, r)
		SoftmaxXent(p2, ls, targets, r, c, n2)
		var total float64
		for i := range n2 {
			if targets[i] >= 0 {
				total += float64(weights[i]) * n2[i]
			}
		}
		return total
	}
	const h = 1e-2
	for _, idx := range []int{0, c + 3, 4*c + 7} {
		pert := append([]float32(nil), logits...)
		pert[idx] += h
		up := lossAt(pert)
		pert[idx] -= 2 * h
		down := lossAt(pert)
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-float64(grad[idx])) > 1e-3 {
			t.Errorf("grad[%d] = %v, numeric %v", idx, grad[idx], numeric)
		}
	}
	// Padding rows must receive no gradient.
	for j := 0; j < c; j++ {
		if grad[2*c+j] != 0 {
			t.Fatalf("padding row received gradient at col %d", j)
		}
	}
}

// TestRowAccEveryWidth runs the row kernel at every output width up to
// 100 — each remainder after the 48-column blocks, with and without a
// masked tail — against the naive loop, with a quarter of the left
// operand zero (the zero-skip) and a strided left operand.
func TestRowAccEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eachKernelPath(func(path string) {
		for c := 1; c <= 100; c++ {
			for _, k := range []int{1, 2, 12, 33} {
				a := make([]float32, 3*k)
				b := make([]float32, k*c)
				fill(a, rng, 0.25)
				fill(b, rng, 0)
				o := make([]float32, c)
				fill(o, rng, 0)
				want := append([]float32(nil), o...)
				for p := 0; p < k; p++ {
					if av := a[3*p]; av != 0 {
						for j := range want {
							want[j] += av * b[p*c+j]
						}
					}
				}
				rowAcc(o, a, b, k, 3, c)
				equalBits(t, fmt.Sprintf("rowAcc(c=%d, k=%d, %s)", c, k, path), o, want)
			}
		}
	})
}

// TestTransposeIntoMatchesNaive checks TransposeInto against the
// element-by-element copy on both paths, for shapes around the 8×8
// tiles, with arbitrary bit patterns (NaN payloads included).
func TestTransposeIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	eachKernelPath(func(path string) {
		for n := 0; n <= 19; n++ {
			for _, m := range []int{0, 1, 7, 8, 9, 12, 16, 17, 48} {
				ld := m + n%3
				src := make([]float32, n*ld+1)
				for i := range src {
					src[i] = math.Float32frombits(rng.Uint32())
				}
				want := make([]float32, m*n)
				for j := 0; j < n; j++ {
					for p := 0; p < m; p++ {
						want[p*n+j] = src[j*ld+p]
					}
				}
				got := TransposeInto(make([]float32, m*n+5), src, n, m, ld)
				if len(got) != m*n {
					t.Fatalf("TransposeInto(%d×%d): len %d", n, m, len(got))
				}
				equalBits(t, fmt.Sprintf("TransposeInto(%d×%d, ld %d, %s)", n, m, ld, path), got, want)
			}
		}
	})
}
