package tensor

import (
	"math/rand"
	"testing"
)

// naiveAttnScores is the contract reference for AttnScoresInto: terms
// in ascending p, one rounding each, zero-skip on q.
func naiveAttnScores(out, q, k []float32, ctxLen, dh int) {
	for j := 0; j < ctxLen; j++ {
		var s float32
		for p := 0; p < dh; p++ {
			if av := q[p]; av != 0 {
				s += av * k[j*dh+p]
			}
		}
		out[j] = s
	}
}

// attnShapes cross the AVX2 dispatch gates (ctxLen ≥ 8, dh ≥ 8) and
// both tails (row count not a multiple of 8, head dim not a multiple
// of 8), plus the shipped model's dh=16.
var attnCtxLens = []int{1, 3, 7, 8, 9, 16, 23, 64, 129}
var attnHeadDims = []int{1, 3, 7, 8, 11, 16, 24}

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
					got := make([]float32, ctxLen)
					want := make([]float32, ctxLen)
					fill(got, rng, 0) // must be overwritten, not accumulated
					AttnScoresInto(got, q, k, ctxLen, dh)
					naiveAttnScores(want, q, k, ctxLen, dh)
					equalBits(t, "AttnScoresInto", got, want)
				}
			}
		})
	})
}

// TestAttnScoresMatchesDotColumns pins the layout seam: packing a head
// slice of full-width K rows into a dense block and running the new
// kernel must reproduce the strided dotColumns path bit for bit.
func TestAttnScoresMatchesDotColumns(t *testing.T) {
	eachKernelPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			rng := rand.New(rand.NewSource(22))
			for _, ctxLen := range attnCtxLens {
				for _, dh := range attnHeadDims {
					heads := 3
					stride := heads * dh
					kfull := make([]float32, ctxLen*stride)
					fill(kfull, rng, 0.1)
					for h := 0; h < heads; h++ {
						off := h * dh
						q := make([]float32, dh)
						fill(q, rng, 0.25)
						want := make([]float32, ctxLen)
						dotColumns(want, q, kfull, ctxLen, stride, off, dh)

						khead := make([]float32, ctxLen*dh)
						for j := 0; j < ctxLen; j++ {
							copy(khead[j*dh:(j+1)*dh], kfull[j*stride+off:j*stride+off+dh])
						}
						got := make([]float32, ctxLen)
						AttnScoresInto(got, q, khead, ctxLen, dh)
						equalBits(t, "AttnScoresInto(vs dotColumns)", got, want)
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

func FuzzAttnScoresAgainstNaive(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(16))
	f.Add(int64(5), uint8(7), uint8(9))
	f.Add(int64(13), uint8(40), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, cc, dd uint8) {
		ctxLen, dh := int(cc%48)+1, int(dd%32)+1
		eachKernelPath(func(path string) {
			rng := rand.New(rand.NewSource(seed))
			q := make([]float32, dh)
			k := make([]float32, ctxLen*dh)
			fill(q, rng, 0.3)
			fill(k, rng, 0.1)
			got := make([]float32, ctxLen)
			want := make([]float32, ctxLen)
			AttnScoresInto(got, q, k, ctxLen, dh)
			naiveAttnScores(want, q, k, ctxLen, dh)
			equalBits(t, "AttnScoresInto(fuzz, "+path+")", got, want)
		})
	})
}

// Benchmarks at the shipped model shape: Dim=64, Heads=4 → dh=16, a
// mid-generation context of 128 rows. "FullWidth" is the old strided
// path (dotColumns + per-term MulRowInto over Dim-wide rows);
// "HeadContiguous" is the dense-block path the decoder now runs.

const (
	benchCtx   = 128
	benchHeads = 4
	benchDh    = 16
	benchDim   = benchHeads * benchDh
)

func benchAttnData(rng *rand.Rand) (q, kfull, vfull, khead, vhead, scores, out []float32) {
	q = make([]float32, benchDh)
	kfull = make([]float32, benchCtx*benchDim)
	vfull = make([]float32, benchCtx*benchDim)
	fill(q, rng, 0.1)
	fill(kfull, rng, 0)
	fill(vfull, rng, 0)
	khead = make([]float32, benchCtx*benchDh)
	vhead = make([]float32, benchCtx*benchDh)
	for j := 0; j < benchCtx; j++ {
		copy(khead[j*benchDh:(j+1)*benchDh], kfull[j*benchDim:j*benchDim+benchDh])
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

func BenchmarkAttendRowHeadContiguous(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	q, _, _, khead, vhead, scores, out := benchAttnData(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AttnScoresInto(scores, q, khead, benchCtx, benchDh)
		clear(out)
		AttnWeightedSumInto(out, scores, vhead, benchCtx, benchDh)
	}
}
