//go:build !amd64

package tensor

// Non-amd64 builds run the pure-Go integer loop; this stub is never
// reached (useAVX2 is always false).

func dotInt8AVX2(a, b *int8, n int) int32 {
	panic("tensor: dotInt8AVX2 on non-amd64")
}

func dotInt8RowsAVX2(a, b *int8, acc *int32, rows, stride, n int) {
	panic("tensor: dotInt8RowsAVX2 on non-amd64")
}

func maxAbsAVX2(src *float32, n8 int) float32 {
	panic("tensor: maxAbsAVX2 on non-amd64")
}

func quantizeRowAVX2(dst *int8, src *float32, n32 int, inv float32) {
	panic("tensor: quantizeRowAVX2 on non-amd64")
}
