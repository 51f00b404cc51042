package tensor

import (
	"math/rand"
	"testing"
)

// attnScoresRef is the per-row scorer the transposed-key path replaced
// (its pure-Go loop, which its AVX2 kernel matched bit for bit): out[j]
// = Σ_p q[p]·k[j*dh+p] over a dense ctxLen×dh key block, terms in
// ascending p, one rounding each, zero-skip on q, out overwritten.
func attnScoresRef(out, q, k []float32, ctxLen, dh int) {
	for j := 0; j < ctxLen; j++ {
		row := k[j*dh : (j+1)*dh]
		var s float32
		for p, av := range q[:dh] {
			if av == 0 {
				continue
			}
			s += av * row[p]
		}
		out[j] = s
	}
}

// transposeKeys lays a dense ctxLen×dh key block out as dh rows of ld ≥
// ctxLen floats, the layout of the decoder's key caches (ld > ctxLen is
// a self-attention cache with headroom). The spare columns hold junk
// the scores must never read.
func transposeKeys(k []float32, ctxLen, dh, ld int, rng *rand.Rand) []float32 {
	kT := make([]float32, dh*ld)
	fill(kT, rng, 0)
	for j := 0; j < ctxLen; j++ {
		for p := 0; p < dh; p++ {
			kT[p*ld+j] = k[j*dh+p]
		}
	}
	return kT
}

// scoresTransposed is the decoder's score row: one MulRowInto of q
// against transposed keys into a zeroed row.
func scoresTransposed(out, q, kT []float32, ctxLen, dh, ld int) {
	clear(out[:ctxLen])
	MulRowInto(out, q, kT, dh, ctxLen, ld, 0)
}

// attnShapes cross the row kernel's 8-lane vectors and masked tails in
// both the context length (output columns) and the head width (terms),
// plus the shipped model's dh=16.
var attnCtxLens = []int{1, 3, 7, 8, 9, 16, 23, 64, 129}
var attnHeadDims = []int{1, 3, 7, 8, 11, 16, 24}

// TestAttnScoresMatchesNaive pins the transposed-key score row, at the
// exact stride and with headroom, to the per-row scorer it replaced.
func TestAttnScoresMatchesNaive(t *testing.T) {
	eachKernelPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			for _, ctxLen := range attnCtxLens {
				for _, dh := range attnHeadDims {
					q := make([]float32, dh)
					k := make([]float32, ctxLen*dh)
					fill(q, rng, 0.25)
					fill(k, rng, 0.1)
					want := make([]float32, ctxLen)
					attnScoresRef(want, q, k, ctxLen, dh)
					for _, ld := range []int{ctxLen, 2*ctxLen + 1} {
						got := make([]float32, ctxLen)
						fill(got, rng, 0) // must be overwritten, not accumulated
						scoresTransposed(got, q, transposeKeys(k, ctxLen, dh, ld, rng), ctxLen, dh, ld)
						equalBits(t, "transposed-key scores", got, want)
					}
				}
			}
		})
	})
}

// TestAttnScoresMatchesDotColumns pins the layout seam: a head's slice
// of full-width K rows, transposed, must give the strided dotColumns
// path's scores bit for bit, one row at a time (MulRowInto, the
// decoder) and a block at a time (MatMulStrided from full-width Q rows,
// the encoder and the training tape).
func TestAttnScoresMatchesDotColumns(t *testing.T) {
	eachKernelPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			rng := rand.New(rand.NewSource(22))
			for _, ctxLen := range attnCtxLens {
				for _, dh := range attnHeadDims {
					const heads, nq = 3, 2
					stride := heads * dh
					kfull := make([]float32, ctxLen*stride)
					qfull := make([]float32, nq*stride)
					fill(kfull, rng, 0.1)
					fill(qfull, rng, 0.25)
					for h := 0; h < heads; h++ {
						off := h * dh
						want := make([]float32, nq*ctxLen)
						for i := 0; i < nq; i++ {
							dotColumns(want[i*ctxLen:], qfull[i*stride+off:], kfull, ctxLen, stride, off, dh)
						}
						kT := make([]float32, dh*ctxLen)
						for j := 0; j < ctxLen; j++ {
							for p := 0; p < dh; p++ {
								kT[p*ctxLen+j] = kfull[j*stride+off+p]
							}
						}
						got := make([]float32, nq*ctxLen)
						for i := 0; i < nq; i++ {
							scoresTransposed(got[i*ctxLen:], qfull[i*stride+off:i*stride+off+dh], kT, ctxLen, dh, ctxLen)
						}
						equalBits(t, "MulRowInto(vs dotColumns)", got, want)
						clear(got)
						MatMulStrided(got, ctxLen, qfull[off:], stride, 1, kT, ctxLen, nq, dh, ctxLen)
						equalBits(t, "MatMulStrided(vs dotColumns)", got, want)
					}
				}
			}
		})
	})
}

// TestAttnWeightedSumMatchesStridedMulRow pins the value-side seam: the
// dense head block through AttnWeightedSumInto must match the strided
// MulRowInto the full-width layout used, including accumulation into a
// nonzero destination.
func TestAttnWeightedSumMatchesStridedMulRow(t *testing.T) {
	eachKernelPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			for _, ctxLen := range attnCtxLens {
				for _, dh := range attnHeadDims {
					heads := 3
					stride := heads * dh
					vfull := make([]float32, ctxLen*stride)
					fill(vfull, rng, 0.1)
					w := make([]float32, ctxLen)
					fill(w, rng, 0.2)
					for h := 0; h < heads; h++ {
						off := h * dh
						want := make([]float32, dh)
						got := make([]float32, dh)
						fill(want, rng, 0)
						copy(got, want)
						MulRowInto(want, w, vfull, ctxLen, dh, stride, off)

						vhead := make([]float32, ctxLen*dh)
						for j := 0; j < ctxLen; j++ {
							copy(vhead[j*dh:(j+1)*dh], vfull[j*stride+off:j*stride+off+dh])
						}
						AttnWeightedSumInto(got, w, vhead, ctxLen, dh)
						equalBits(t, "AttnWeightedSumInto(vs MulRowInto)", got, want)
					}
				}
			}
		})
	})
}

// FuzzAttnScoresAgainstNaive checks both transposed-key score paths
// against attnScoresRef: a decoder score row with ld-ctxLen columns of
// headroom, and an encoder block of three full-width query rows
// through MatMulStrided.
func FuzzAttnScoresAgainstNaive(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(16))
	f.Add(int64(5), uint8(7), uint8(9))
	f.Add(int64(13), uint8(40), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, cc, dd uint8) {
		ctxLen, dh := int(cc%48)+1, int(dd%32)+1
		ld := ctxLen + int(cc/48)%3
		eachKernelPath(func(path string) {
			const heads, nq = 2, 3
			rng := rand.New(rand.NewSource(seed))
			qfull := make([]float32, nq*heads*dh)
			k := make([]float32, ctxLen*dh)
			fill(qfull, rng, 0.3)
			fill(k, rng, 0.1)
			kT := transposeKeys(k, ctxLen, dh, ld, rng)
			want := make([]float32, nq*ctxLen)
			got := make([]float32, nq*ctxLen)
			for i := 0; i < nq; i++ {
				q := qfull[i*heads*dh+dh : (i+1)*heads*dh] // head 1
				attnScoresRef(want[i*ctxLen:], q, k, ctxLen, dh)
				scoresTransposed(got[i*ctxLen:], q, kT, ctxLen, dh, ld)
			}
			equalBits(t, "MulRowInto(fuzz, "+path+")", got, want)
			clear(got)
			MatMulStrided(got, ctxLen, qfull[dh:], heads*dh, 1, kT, ld, nq, dh, ctxLen)
			equalBits(t, "MatMulStrided(fuzz, "+path+")", got, want)
		})
	})
}

// Benchmarks at the shipped model shape: Dim=64, Heads=4 → dh=16, a
// mid-generation context of 128 rows. "FullWidth" is the old strided
// path (dotColumns + per-term MulRowInto over Dim-wide rows);
// "TransposedK" is the path the decoder runs: scores against transposed
// keys, the weighted sum against a head-contiguous value block.

const (
	benchCtx   = 128
	benchHeads = 4
	benchDh    = 16
	benchDim   = benchHeads * benchDh
)

func benchAttnData(rng *rand.Rand) (q, kfull, vfull, kT, vhead, scores, out []float32) {
	q = make([]float32, benchDh)
	kfull = make([]float32, benchCtx*benchDim)
	vfull = make([]float32, benchCtx*benchDim)
	fill(q, rng, 0.1)
	fill(kfull, rng, 0)
	fill(vfull, rng, 0)
	kT = make([]float32, benchDh*benchCtx)
	vhead = make([]float32, benchCtx*benchDh)
	for j := 0; j < benchCtx; j++ {
		for p := 0; p < benchDh; p++ {
			kT[p*benchCtx+j] = kfull[j*benchDim+p]
		}
		copy(vhead[j*benchDh:(j+1)*benchDh], vfull[j*benchDim:j*benchDim+benchDh])
	}
	scores = make([]float32, benchCtx)
	out = make([]float32, benchDh)
	return
}

func BenchmarkAttendRowFullWidth(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	q, kfull, vfull, _, _, scores, out := benchAttnData(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(scores)
		dotColumns(scores, q, kfull, benchCtx, benchDim, 0, benchDh)
		clear(out)
		MulRowInto(out, scores, vfull, benchCtx, benchDh, benchDim, 0)
	}
}

func BenchmarkAttendRowTransposedK(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	q, _, _, kT, vhead, scores, out := benchAttnData(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scoresTransposed(scores, q, kT, benchCtx, benchDh, benchCtx)
		clear(out)
		AttnWeightedSumInto(out, scores, vhead, benchCtx, benchDh)
	}
}
