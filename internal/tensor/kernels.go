// Package tensor is the numeric kernel layer under internal/model: the
// float32 matrix kernels the autodiff tape, the batched trainer, and the
// Stage 3 incremental decoder all share, plus the grow-only arena that
// backs resettable tapes and the fused softmax+cross-entropy.
//
// Determinism contract. Every kernel computes each output element by
// adding its terms in ascending-k order, one float32 rounding per added
// term, and skips a term exactly when its left operand is zero — the
// same per-element semantics as a naive triple loop with a zero-skip.
// The row kernel below only changes where the running sum lives (a
// register instead of memory between terms) and the row-parallel
// dispatch only partitions *disjoint* output rows, so results are
// bit-identical to the naive reference for any worker count and any
// column blocking. kernels_test.go enforces this with
// differential and property tests; keep any new kernel inside the same
// contract, because the Stage 3 cache (internal/model/kvcache.go) and
// the training tape must keep producing identical floats.
package tensor

import (
	"runtime"
	"sync"
)

// parFlops gates the parallel dispatch: kernels below this many
// multiply-adds run serially, since goroutine handoff costs more than
// the work (Stage 3's per-step rows stay serial, training's batched
// matmuls fan out).
const parFlops = 1 << 21

// parallelRows runs body over [0,r) split into at most GOMAXPROCS
// contiguous chunks. Output rows are disjoint across chunks, so the
// partitioning never changes results. Callers check the parFlops gate
// first and run their row loop directly below it: body escapes to the
// worker goroutines, so building it would cost a heap closure per call
// even where the work stays serial.
func parallelRows(r int, body func(lo, hi int)) {
	w := min(runtime.GOMAXPROCS(0), r)
	if w <= 1 {
		body(0, r)
		return
	}
	chunk := (r + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < r; lo += chunk {
		hi := min(lo+chunk, r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	wg.Wait()
}

// Axpy computes dst[i] += alpha·src[i]. Lanes are independent and each
// element receives exactly one += (one product rounding, one add
// rounding), so the AVX2 path and the scalar loop produce bit-identical
// results.
func Axpy(dst, src []float32, alpha float32) {
	src = src[:len(dst)]
	i := 0
	if useAVX2 && len(dst) >= 8 {
		i = len(dst) &^ 7
		axpyAVX2(&dst[0], &src[0], i, alpha)
	}
	for ; i < len(dst); i++ {
		dst[i] += alpha * src[i]
	}
}

// rowAcc accumulates o[j] += a[p·astride]·b[p·ldb+j] for j < len(o),
// p < k: one output row of a matmul, with the left operand read at any
// stride (1 for a row of a, r for a column of an r-wide a) and the right
// operand's rows ldb apart. Every element receives its nonzero terms in
// ascending p, one product rounding and one add rounding each, and a
// term is skipped exactly when its a value is ±0 (never for NaN). The
// AVX2 kernel keeps each column block in registers across all k terms;
// the loop below is the reference it is tested against.
func rowAcc(o, a, b []float32, k, astride, ldb int) {
	c := len(o)
	if c == 0 || k == 0 {
		return
	}
	_ = a[(k-1)*astride]
	_ = b[(k-1)*ldb+c-1]
	if useAVX2 {
		rowAccAVX2(&o[0], &a[0], &b[0], c, k, astride, ldb)
		return
	}
	for p := 0; p < k; p++ {
		av := a[p*astride]
		if av == 0 {
			continue
		}
		brow := b[p*ldb : p*ldb+c]
		for j, bv := range brow {
			o[j] += av * bv
		}
	}
}

// MatMul computes out += a·b with a r×k, b k×c (out accumulates; zero it
// for a plain product). Each output row is one rowAcc call, so every
// element receives its nonzero terms in ascending-k order with one
// rounding each — bit-identical to the naive kernel. Large shapes fan
// out over disjoint row ranges.
func MatMul(out, a, b []float32, r, k, c int) {
	if r*k*c < parFlops {
		matMulRows(out, a, b, k, c, 0, r)
		return
	}
	parallelRows(r, func(lo, hi int) { matMulRows(out, a, b, k, c, lo, hi) })
}

// matMulRows is MatMul over output rows [lo,hi).
func matMulRows(out, a, b []float32, k, c, lo, hi int) {
	for i := lo; i < hi; i++ {
		rowAcc(out[i*c:(i+1)*c], a[i*k:(i+1)*k], b, k, 1, c)
	}
}

// ntPool recycles MatMulNT's transpose scratch; the transpose costs k·c
// element copies against the r·k·c multiply-adds it unlocks. It holds
// *[]float32, and a buffer goes back under the pointer it came out
// with, so a steady-state call allocates nothing.
var ntPool sync.Pool

// scratchCap rounds a request up to the next power of two (min 256), so
// nearby shapes share one size class and a pooled buffer keeps serving
// after small size drifts.
func scratchCap(n int) int {
	c := 256
	for c < n {
		c <<= 1
	}
	return c
}

// getScratch returns a pooled buffer, resliced to length n; hand the
// same pointer back with ntPool.Put.
func getScratch(n int) *[]float32 {
	if p, _ := ntPool.Get().(*[]float32); p != nil {
		if cap(*p) >= n {
			*p = (*p)[:n]
			return p
		}
		// Undersized for this call, still useful for the next small
		// one: return it instead of letting it fall to the collector.
		ntPool.Put(p)
	}
	s := make([]float32, n, scratchCap(n))
	return &s
}

// MatMulNT computes dst += a·bᵀ with a r×k, b c×k, dst r×c. It
// materializes bᵀ into pooled scratch and runs the blocked MatMul
// kernel, so every output element gets its nonzero terms in ascending-k
// order with one rounding each (and the zero-skip on a's values), via
// the vectorized row update instead of scalar dot products.
func MatMulNT(dst, a, b []float32, r, k, c int) {
	sp := getScratch(k * c)
	bt := *sp
	for j := 0; j < c; j++ {
		row := b[j*k : (j+1)*k]
		for p, v := range row {
			bt[p*c+j] = v
		}
	}
	MatMul(dst, a, bt, r, k, c)
	ntPool.Put(sp)
}

// MatMulTN computes dst += aᵀ·b with a r2×r, b r2×c, dst r×c. Row i of
// dst is rowAcc over column i of a (stride r), so each element gets its
// nonzero terms in ascending-k (=r2) order, one rounding each. Parallel
// over dst rows.
func MatMulTN(dst, a, b []float32, r, r2, c int) {
	if r*r2*c < parFlops {
		matMulTNRows(dst, a, b, r, r2, c, 0, r)
		return
	}
	parallelRows(r, func(lo, hi int) { matMulTNRows(dst, a, b, r, r2, c, lo, hi) })
}

// matMulTNRows is MatMulTN over dst rows [lo,hi).
func matMulTNRows(dst, a, b []float32, r, r2, c, lo, hi int) {
	for i := lo; i < hi; i++ {
		rowAcc(dst[i*c:(i+1)*c], a[i:], b, r2, r, c)
	}
}

// MulRowInto accumulates out[j] += a[p]·b[p*stride+off+j] for j < cols,
// p < rows: one output row of MatMul against a sub-matrix of b, in
// MatMul's per-element term order (the Stage 3 decoder depends on this
// for its bit-identity with the tape path).
func MulRowInto(out, a, b []float32, rows, cols, stride, off int) {
	rowAcc(out[:cols], a, b[off:], rows, 1, stride)
}

// MatMulStrided computes out[i*ldo+j] += Σ_p a[i*ars+p*acs]·b[p*ldb+j]
// for i < r, j < c, p < k: MatMul over operands that sit at any row and
// column stride inside larger buffers. Each output row is one rowAcc
// call, so every element gets MatMul's ascending-p terms, roundings and
// zero-skip on a. The fused attention on the training tape runs all its
// per-head products through it, straight on the full-width Q/K/V rows
// and their gradients. Serial: its callers' shapes sit far below the
// parallel dispatch gate.
func MatMulStrided(out []float32, ldo int, a []float32, ars, acs int, b []float32, ldb, r, k, c int) {
	if k == 0 || c == 0 {
		return
	}
	for i := 0; i < r; i++ {
		rowAcc(out[i*ldo:i*ldo+c], a[i*ars:], b, k, acs, ldb)
	}
}

// TransposeInto writes the m columns of n rows of src, ld floats apart,
// into dst as an m×n block and returns it: dst[p*n+j] = src[j*ld+p].
// The AVX2 path moves whole 8×8 tiles through registers; the rows past
// the last full strip of 8 and the columns past the last multiple of 8
// are copied one by one. It only moves values, so both paths give the
// same bits.
func TransposeInto(dst, src []float32, n, m, ld int) []float32 {
	dst = dst[:m*n]
	if n == 0 || m == 0 {
		return dst
	}
	_ = src[(n-1)*ld+m-1]
	j, m8 := 0, 0
	if useAVX2 {
		m8 = m &^ 7
		if m8 > 0 {
			for ; j+8 <= n; j += 8 {
				transpose8AVX2(&dst[j], n, &src[j*ld], ld, m8)
			}
		}
	}
	for r := 0; r < n; r++ {
		p0 := m8
		if r >= j {
			p0 = 0
		}
		row := src[r*ld+p0 : r*ld+m]
		for p, x := range row {
			dst[(p0+p)*n+r] = x
		}
	}
	return dst
}
