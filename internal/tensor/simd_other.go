//go:build !amd64

package tensor

// Non-amd64 builds run the pure-Go loops everywhere; these stubs are
// never reached. useAVX2 is a var, as on amd64, so the tests that force
// the pure-Go paths build everywhere.

var useAVX2 = false

func axpyAVX2(dst, src *float32, n int, alpha float32) {
	panic("tensor: axpyAVX2 on non-amd64")
}

func rowAccAVX2(o, a, b *float32, c, k, astride, ldb int) {
	panic("tensor: rowAccAVX2 on non-amd64")
}

func layerNormApplyAVX2(dst, src, gain, bias *float32, n int, mean, is float32) {
	panic("tensor: layerNormApplyAVX2 on non-amd64")
}

func transpose8AVX2(dst *float32, ldd int, src *float32, lds int, m int) {
	panic("tensor: transpose8AVX2 on non-amd64")
}

func layerNormStats8AVX2(src *float32, c int, fc float32, mean, ss *float32) {
	panic("tensor: layerNormStats8AVX2 on non-amd64")
}
