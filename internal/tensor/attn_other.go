//go:build !amd64

package tensor

// Non-amd64 builds run the pure-Go loops everywhere; this stub is never
// reached (useAVX2 is always false).

func attnScores8AVX2(out, q, k *float32, n8, dh8, dh int) {
	panic("tensor: attnScores8AVX2 on non-amd64")
}
