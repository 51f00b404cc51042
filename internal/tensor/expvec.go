// Exact row transcendentals: softmax, GELU and the log-sum-exp behind
// cross-entropy, computed through vector replicas of math.Exp and
// math.Tanh (expvec_amd64.s) that give the library's bits lane for lane.
// Every kernel here equals its scalar formula by Float32bits/Float64bits
// — the formula is in each doc comment, and exact_test.go and the fuzz
// targets check it — so the tape, the cached decoder and the batched
// encoder keep the determinism contract while their exp and tanh run
// four at a time. Where the replica cannot run (no AVX2/FMA, another
// GOARCH, or a lane it does not cover) the kernel calls the library per
// element.
package tensor

import "math"

// ExpInto sets dst[i] = math.Exp(src[i]) for i < len(src), bit for bit.
// dst must hold len(src) elements and either be src or not overlap it.
func ExpInto(dst, src []float64) {
	n := len(src)
	dst = dst[:n]
	i := 0
	if expVec() {
		for n-i >= 4 {
			i += expAVX2(&dst[i], &src[i], (n-i)&^3)
			if n-i >= 4 { // a chunk the replica leaves to math.Exp
				for e := i + 4; i < e; i++ {
					dst[i] = math.Exp(src[i])
				}
			}
		}
		if i < n {
			var buf [4]float64
			copy(buf[:], src[i:])
			if expAVX2(&buf[0], &buf[0], 4) == 4 {
				copy(dst[i:], buf[:])
				return
			}
		}
	}
	for ; i < n; i++ {
		dst[i] = math.Exp(src[i])
	}
}

// expShift32 sets dst[i] = float32(math.Exp(float64(src[i] - shift))):
// softmax's exponentials, with the float32 subtraction and both
// conversions inside the replica. dst is src or does not overlap it.
func expShift32(dst, src []float32, shift float32) {
	n := len(src)
	dst = dst[:n]
	i := 0
	if expVec() {
		for n-i >= 4 {
			i += expShift32AVX2(&dst[i], &src[i], (n-i)&^3, shift)
			if n-i >= 4 {
				for e := i + 4; i < e; i++ {
					dst[i] = float32(math.Exp(float64(src[i] - shift)))
				}
			}
		}
		if i < n {
			// Padding lanes hold shift, so their exponent is 0.
			buf := [4]float32{shift, shift, shift, shift}
			copy(buf[:], src[i:])
			if expShift32AVX2(&buf[0], &buf[0], 4, shift) == 4 {
				copy(dst[i:], buf[:])
				return
			}
		}
	}
	for ; i < n; i++ {
		dst[i] = float32(math.Exp(float64(src[i] - shift)))
	}
}

// rowMax returns the largest element of row (−Inf for an empty row),
// skipping NaNs as `v > maxv` does.
func rowMax(row []float32) float32 {
	maxv := float32(math.Inf(-1))
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	return maxv
}

// SoftmaxRow writes the softmax of src into dst (which is src or does
// not overlap it), exactly as
//
//	maxv := max(src) (float32)
//	e[j] = float32(math.Exp(float64(src[j] - maxv)))
//	sum  = Σ e[j] in float32, ascending j
//	dst[j] = e[j] * (1/sum) when sum > 0, else e[j]
//
// It is SoftmaxBlock's one unmasked row at scale 1 (x·1 = x).
func SoftmaxRow(dst, src []float32) {
	dst = dst[:len(src)]
	copy(dst, src)
	SoftmaxBlock(dst, 1, len(dst), 1, false)
}

// SoftmaxBlock applies attention's softmax in place to each row of the
// r×c block p (row i at p[i*c:(i+1)*c]), exactly as
//
//	s[j] = x[j] * scale, or, when causal,
//	s[j] = float32(x[j]*scale) + m[j], m[j] = 0 for j ≤ i, −Inf for j > i
//
// followed by SoftmaxRow's formula on s. The AVX2 path takes two kernel
// calls: one per row for the scale and mask fused with a vector row max
// and the exp replica, then one per block for the sums, eight rows'
// ascending chains side by side, and the vector normalisation.
// scaleMaskRow, expShift32 and normalizeRow are its reference.
func SoftmaxBlock(p []float32, r, c int, scale float32, causal bool) {
	if r == 0 || c == 0 {
		return
	}
	p = p[:r*c]
	vec := expVec()
	for i := 0; i < r; i++ {
		row := p[i*c : (i+1)*c]
		diag := -1
		if causal {
			diag = i
		}
		if !vec {
			expShift32(row, row, scaleMaskRow(row, 0, scale, diag))
			normalizeRow(row)
			continue
		}
		maxv, done := softmaxExpRowAVX2(&row[0], c, scale, diag)
		if done < c { // a chunk the exp replica leaves to math.Exp
			rest := row[done:]
			scaleMaskRow(rest, done, scale, diag)
			expShift32(rest, rest, maxv)
		}
	}
	if vec {
		normalizeRowsAVX2(&p[0], r, c)
	}
}

// scaleMaskRow sets row[j] = x*scale, or, for the causal mask of row
// diag ≥ 0, float32(x*scale) + m with m = −Inf where the column off+j
// exceeds diag and +0 elsewhere. It returns the largest result (−Inf
// for an empty row), skipping NaNs as `v > maxv` does.
func scaleMaskRow(row []float32, off int, scale float32, diag int) float32 {
	negInf := float32(math.Inf(-1))
	maxv := negInf
	for j, x := range row {
		s := x * scale
		if diag >= 0 {
			m := float32(0)
			if off+j > diag {
				m = negInf
			}
			s = float32(x*scale) + m
		}
		row[j] = s
		if s > maxv {
			maxv = s
		}
	}
	return maxv
}

// normalizeRow scales a row of exps by 1/sum when their float32 sum,
// ascending j, is positive.
func normalizeRow(row []float32) {
	var sum float32
	for _, e := range row {
		sum += e
	}
	if sum > 0 {
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// expChunk is the stack block the float64-summing kernels widen a row
// into before ExpInto, so they take no heap buffer.
const expChunk = 64

// expSumShifted returns Σ math.Exp(float64(src[j] - shift)) in float64,
// ascending j, and stores each term as float32 into dst when dst is not
// nil.
func expSumShifted(dst, src []float32, shift float32) float64 {
	var buf [expChunk]float64
	var sum float64
	for off := 0; off < len(src); off += expChunk {
		s := src[off:min(off+expChunk, len(src))]
		b := buf[:len(s)]
		for j, v := range s {
			b[j] = float64(v - shift)
		}
		ExpInto(b, b)
		for _, e := range b {
			sum += e
		}
		if dst != nil {
			d := dst[off : off+len(s)]
			for j, e := range b {
				d[j] = float32(e)
			}
		}
	}
	return sum
}

// SoftmaxNorm returns a row's log-softmax normaliser in the split form
// log p(j) = float64(row[j]-maxv) − logSum, with maxv = max(row) and
// logSum = math.Log(Σ math.Exp(float64(row[j]-maxv))), the sum in
// float64 ascending j.
func SoftmaxNorm(row []float32) (maxv float32, logSum float64) {
	maxv = rowMax(row)
	return maxv, math.Log(expSumShifted(nil, row, maxv))
}

// SoftmaxLogZ returns logZ = math.Log(Σ math.Exp(float64(row[j]-maxv)))
// + float64(maxv) and writes probs[j] = float32(math.Exp(float64(row[j])
// − logZ)): the tape cross-entropy's forward, sums in float64 ascending.
func SoftmaxLogZ(probs, row []float32) float64 {
	maxv, logSum := SoftmaxNorm(row)
	logZ := logSum + float64(maxv)
	probs = probs[:len(row)]
	var buf [expChunk]float64
	for off := 0; off < len(row); off += expChunk {
		s := row[off:min(off+expChunk, len(row))]
		b := buf[:len(s)]
		for j, v := range s {
			b[j] = float64(v) - logZ
		}
		ExpInto(b, b)
		d := probs[off : off+len(s)]
		for j, e := range b {
			d[j] = float32(e)
		}
	}
	return logZ
}

// geluC0 is sqrt(2/pi), GELU's tanh scale.
const geluC0 = 0.7978845608028654

// GELURow writes the tanh-approximated GELU of src into dst (which is src
// or does not overlap it) and, when deriv is not nil, its derivative into
// deriv, exactly as geluAt computes them.
func GELURow(dst, src, deriv []float32) {
	n := len(src)
	dst = dst[:n]
	if deriv != nil {
		deriv = deriv[:n]
	}
	i := 0
	if expVec() {
		var dp *float32
		for n-i >= 4 {
			if deriv != nil {
				dp = &deriv[i]
			}
			i += geluAVX2(&dst[i], &src[i], dp, (n-i)&^3)
			if n-i >= 4 { // a chunk with a NaN lane
				for e := i + 4; i < e; i++ {
					geluAt(dst, src, deriv, i)
				}
			}
		}
		if i < n {
			var buf, dbuf [4]float32
			copy(buf[:], src[i:])
			if deriv != nil {
				dp = &dbuf[0]
			}
			if geluAVX2(&buf[0], &buf[0], dp, 4) == 4 {
				copy(dst[i:], buf[:])
				if deriv != nil {
					copy(deriv[i:], dbuf[:])
				}
				return
			}
		}
	}
	for ; i < n; i++ {
		geluAt(dst, src, deriv, i)
	}
}

// geluAt is GELU's scalar formula for element i: the float64 forward
// 0.5·x·(1+tanh(c0·(x+0.044715·x³))) and, when deriv is not nil, its
// derivative, both rounded to float32.
func geluAt(dst, src, deriv []float32, i int) {
	x := float64(src[i])
	t := math.Tanh(geluC0 * (x + 0.044715*x*x*x))
	dst[i] = float32(0.5 * x * (1 + t))
	if deriv != nil {
		deriv[i] = float32(0.5*(1+t) + 0.5*x*(1-t*t)*geluC0*(1+3*0.044715*x*x))
	}
}
