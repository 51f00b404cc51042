//go:build amd64

package tensor

// The assembly kernels vectorize the two inner loops every matmul-family
// kernel reduces to — axpy and the register-accumulating row update —
// with VMULPS/VADDPS only. Each lane performs exactly the scalar sequence
// (separate rounding for the product and for each add, terms associated
// left-to-right from the accumulator), and lanes never exchange data, so
// the vector results are bit-identical to the pure-Go loops; the
// differential tests in kernels_test.go run both paths against the same
// naive reference. FMA is deliberately not used: a fused multiply-add
// rounds once, not twice, and would break the determinism contract.

func cpuidex(leaf, sub uint32) (ax, bx, cx, dx uint32)
func xgetbv0() (eax, edx uint32)

// axpyAVX2 computes dst[i] += alpha·src[i] for n elements (n ≥ 0,
// processed 8 at a time; the caller handles n%8 leftovers).
func axpyAVX2(dst, src *float32, n int, alpha float32)

// rowAccAVX2 computes o[j] += a[p*astride]·b[p*ldb+j] for j < c and
// p < k (c, k ≥ 1), skipping the terms whose a value is ±0. Each
// column block of o stays in registers while all k terms are added in
// ascending p, so it is loaded and stored once per call instead of once
// per term; the last c%8 columns use masked loads and stores.
func rowAccAVX2(o, a, b *float32, c, k, astride, ldb int)

// layerNormApplyAVX2 computes dst[j] = (src[j]-mean)*is*gain[j] + bias[j]
// for j < n (n ≥ 1), each operation rounded on its own in that order.
//
//go:noescape
func layerNormApplyAVX2(dst, src, gain, bias *float32, n int, mean, is float32)

// transpose8AVX2 sets dst[c*ldd+r] = src[r*lds+c] for r < 8, c < m (m a
// positive multiple of 8).
//
//go:noescape
func transpose8AVX2(dst *float32, ldd int, src *float32, lds int, m int)

// layerNormStats8AVX2 sets mean[l] = (Σ_j row_l[j]) / fc and ss[l] =
// Σ_j (row_l[j] − mean[l])², ascending j, for the 8 rows of c floats at
// src (c a positive multiple of 8).
//
//go:noescape
func layerNormStats8AVX2(src *float32, c int, fc float32, mean, ss *float32)

// useAVX2 gates the assembly paths: AVX2 present and YMM state enabled
// by the OS. Checked once at init; the pure-Go loops are the fallback
// and the reference. It is a var so tests can force the pure-Go paths.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: XMM and YMM state saved/restored by the OS.
	eax, _ := xgetbv0()
	if eax&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0 // CPUID.(EAX=7,ECX=0):EBX[5] = AVX2
}
