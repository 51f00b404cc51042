// Quantized int8 inference kernels. A QMat holds a row-major int8 matrix
// with one float32 dequantization scale per row (scale = maxabs/127, so
// the row's values span the full int8 range); QMatMulNT multiplies two
// QMats with exact int32 accumulation and applies the scales once per
// output element after the sum ("scale-once").
//
// Determinism contract. The integer accumulation is exact — no rounding
// happens until the single float32 scaling at the end — so the ascending-k
// term order required of the float32 kernels is preserved trivially, and
// the row-partitioned parallel dispatch and the SIMD width cannot change
// any output bit. quant_test.go enforces bit-identity across worker
// counts and the AVX2/pure-Go seam, plus a stated tolerance against the
// float32 kernels. Inference only: nothing here appears on the tape.
package tensor

import "sync"

// QMat is a row-major int8 matrix with per-row dequantization scales:
// the float32 value approximated by element (i,j) is
// float32(Data[i*C+j]) * Scale[i].
type QMat struct {
	R, C  int
	Data  []int8
	Scale []float32
}

// QuantizeRows quantizes src (r×c, row-major float32) per row: each row's
// scale is maxabs/127 and its values are round-to-nearest-even multiples
// of that scale clamped to [-127, 127]. An all-zero row gets scale 0.
func QuantizeRows(src []float32, r, c int) *QMat {
	q := &QMat{}
	QuantizeRowsInto(q, src, r, c)
	return q
}

// QuantizeRowsInto is QuantizeRows into caller-owned storage: q's Data
// and Scale backing arrays are reused when large enough and reallocated
// otherwise, so steady-state activation quantization allocates nothing.
func QuantizeRowsInto(q *QMat, src []float32, r, c int) {
	q.R, q.C = r, c
	if cap(q.Data) < r*c {
		q.Data = make([]int8, r*c)
	}
	q.Data = q.Data[:r*c]
	if cap(q.Scale) < r {
		q.Scale = make([]float32, r)
	}
	q.Scale = q.Scale[:r]
	for i := 0; i < r; i++ {
		QuantizeRowInto(q.Data[i*c:(i+1)*c], src[i*c:(i+1)*c], &q.Scale[i])
	}
}

// QuantizeRowInto quantizes one row into dst and stores its scale.
// len(dst) must equal len(src). The hot loop is pure float32: the
// round-to-nearest-even happens by adding and subtracting 1.5·2²³ (the
// classic magic-number round — the add pushes the value into a binade
// whose ulp is 1, so the IEEE default rounding mode performs the
// round-to-even, and the subtract recovers the integer exactly for
// |v·inv| ≤ 127 ≪ 2²²).
// The AVX2 fast path covers both passes — max(|·|) over 8 lanes, then a
// multiply/VCVTPS2DQ/clamp/pack loop over 32 elements — and is
// bit-identical to the scalar loops: max over non-negative floats is
// order-free, and VCVTPS2DQ's round-to-nearest-even (default MXCSR) is
// exactly what the magic-number trick computes for |x| ≤ 127.
func QuantizeRowInto(dst []int8, src []float32, scale *float32) {
	n := len(src)
	var maxAbs float32
	i := 0
	if useAVX2 && n >= 8 {
		i = n &^ 7
		maxAbs = maxAbsAVX2(&src[0], i)
	}
	for ; i < n; i++ {
		v := src[i]
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs == 0 {
		for j := range dst {
			dst[j] = 0
		}
		*scale = 0
		return
	}
	const magic = float32(3 << 22) // 1.5·2²³
	inv := 127 / maxAbs
	j := 0
	if useAVX2 && n >= 32 {
		j = n &^ 31
		quantizeRowAVX2(&dst[0], &src[0], j, inv)
	}
	for ; j < n; j++ {
		// Explicit conversions force a rounding after every op: the spec
		// lets implementations fuse float expressions (FMA), which would
		// skip the intermediate rounding the magic trick depends on.
		q := float32(float32(src[j]*inv)+magic) - magic
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[j] = int8(q)
	}
	*scale = maxAbs / 127
}

// Dequantize expands q back to float32 (row i scaled by Scale[i]); the
// reconstruction the differential tests measure quantization error
// against.
func Dequantize(q *QMat) []float32 {
	out := make([]float32, q.R*q.C)
	for i := 0; i < q.R; i++ {
		s := q.Scale[i]
		for j := 0; j < q.C; j++ {
			out[i*q.C+j] = float32(q.Data[i*q.C+j]) * s
		}
	}
	return out
}

// QMatMulNT computes dst += a·bᵀ with a r×k and b c×k (both quantized
// per row), dst r×c float32. Each output element is an exact int32 dot
// product scaled once: dst[i][j] += float32(Σₚ a[i][p]·b[j][p]) ·
// aScale[i] · bScale[j]. Exact for k ≤ ~133k (127·127·k < 2³¹). Large
// shapes fan out over disjoint dst rows; bit-identical for any worker
// count because the integer sum is order-free.
func QMatMulNT(dst []float32, a, b *QMat) {
	if a.C != b.C {
		panic("tensor: QMatMulNT inner dimensions differ")
	}
	r := a.R
	if r*a.C*b.R < parFlops {
		qMatMulNTRows(dst, a, b, 0, r)
		return
	}
	parallelRows(r, func(lo, hi int) { qMatMulNTRows(dst, a, b, lo, hi) })
}

// qMatMulNTRows is QMatMulNT over dst rows [lo,hi).
func qMatMulNTRows(dst []float32, a, b *QMat, lo, hi int) {
	c := b.R
	acc := getAcc(c)
	for i := lo; i < hi; i++ {
		arow := a.Data[i*a.C : (i+1)*a.C]
		sa := a.Scale[i]
		drow := dst[i*c : (i+1)*c]
		dotInt8Rows(acc, arow, b.Data, c, b.C)
		for j := 0; j < c; j++ {
			drow[j] += float32(acc[j]) * sa * b.Scale[j]
		}
	}
	putAcc(acc)
}

// QMulRowInto accumulates out[j] += (Σₚ a[p]·b[j][p]) · sa · bScale[j]
// for j < b.R — one activation row (already quantized with scale sa)
// against every row of b. The serial single-row form QMatMulNT reduces
// to; the incremental decoder's per-step linears and logits use it.
func QMulRowInto(out []float32, a []int8, sa float32, b *QMat) {
	if len(a) != b.C {
		panic("tensor: QMulRowInto inner dimensions differ")
	}
	acc := getAcc(b.R)
	dotInt8Rows(acc, a, b.Data, b.R, b.C)
	for j := 0; j < b.R; j++ {
		out[j] += float32(acc[j]) * sa * b.Scale[j]
	}
	putAcc(acc)
}

// accPool recycles the int32 accumulator rows the batched int8 kernels
// write into before the scale-once pass.
var accPool sync.Pool

func getAcc(n int) []int32 {
	p, _ := accPool.Get().(*[]int32)
	if p == nil || cap(*p) < n {
		return make([]int32, n)
	}
	return (*p)[:n]
}

func putAcc(s []int32) {
	s = s[:0]
	accPool.Put(&s)
}

// dotInt8Rows computes acc[j] = dot(a, b[j*stride:][:len(a)]) for
// j < rows — one activation row against a block of weight rows. The
// AVX2 path processes four weight rows per pass so each 16-lane chunk
// of a is sign-extended once and reused, removing the per-call overhead
// that made one-dot-per-output slower than float32 at small depths. The
// integer sums are exact either way, so the split cannot change a bit.
func dotInt8Rows(acc []int32, a, b []int8, rows, stride int) {
	n := len(a)
	j := 0
	if useAVX2 && n >= 16 && rows > 0 {
		n16 := n &^ 15
		dotInt8RowsAVX2(&a[0], &b[0], &acc[0], rows, stride, n16)
		if n16 == n {
			return
		}
		// Fold the unvectorized k-tail into every row's sum.
		for ; j < rows; j++ {
			row := b[j*stride : j*stride+n]
			s := acc[j]
			for i := n16; i < n; i++ {
				s += int32(a[i]) * int32(row[i])
			}
			acc[j] = s
		}
		return
	}
	for ; j < rows; j++ {
		row := b[j*stride : j*stride+n]
		var s int32
		for i := 0; i < n; i++ {
			s += int32(a[i]) * int32(row[i])
		}
		acc[j] = s
	}
}

// dotInt8 computes the exact int32 dot product of two equal-length int8
// vectors. The AVX2 path (16 lanes sign-extended to int16, pairwise
// multiply-add into int32) computes the same exact integer sum.
func dotInt8(a, b []int8) int32 {
	b = b[:len(a)]
	var acc int32
	i := 0
	if useAVX2 && len(a) >= 16 {
		i = len(a) &^ 15
		acc = dotInt8AVX2(&a[0], &b[0], i)
	}
	for ; i < len(a); i++ {
		acc += int32(a[i]) * int32(b[i])
	}
	return acc
}
