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
