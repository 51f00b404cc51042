//go:build !amd64

package tensor

// Non-amd64 builds call math.Exp and math.Tanh per element; these stubs
// are never reached (expVec is always false).

func expVec() bool { return false }

func expAVX2(dst, src *float64, n int) int {
	panic("tensor: expAVX2 on non-amd64")
}

func expShift32AVX2(dst, src *float32, n int, shift float32) int {
	panic("tensor: expShift32AVX2 on non-amd64")
}

func geluAVX2(dst, src, deriv *float32, n int) int {
	panic("tensor: geluAVX2 on non-amd64")
}
