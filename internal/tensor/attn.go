// Attention kernels over the head-contiguous K/V layout. The Stage 3
// decoder and the batched inference encoder store each head's keys and
// values as a dense ctxLen×dh row-major block (instead of strided slices
// of full-width Dim rows), so the two per-head attention reductions —
// scores = q·Kᵀ and out = weights·V — become dense kernels the SIMD
// layer can vectorize.
//
// Both kernels keep the package determinism contract: every output
// element receives its terms in ascending context order, one float32
// rounding per added term, with the zero-skip on the shared operand
// (q for scores, the softmax weights for the weighted sum). The AVX2
// scores kernel vectorizes across *output* lanes — eight context rows'
// dots advance in lockstep, each lane a private sequential chain — so
// no lane ever reorders or fuses an addition, and the results are
// bit-identical to the scalar loop (and, transitively, to the strided
// dot-product/MulRowInto path the full-width layout used). attn_test.go
// enforces both seams.
package tensor

// AttnScoresInto writes out[j] = Σ_p q[p]·k[j*dh+p] for j < ctxLen:
// one query head row dotted against every cached key row of that head
// (k is the head's dense ctxLen×dh block). Terms accumulate in
// ascending p with the zero-skip on q's values; out is overwritten.
func AttnScoresInto(out, q, k []float32, ctxLen, dh int) {
	out = out[:ctxLen]
	q = q[:dh]
	j := 0
	if useAVX2 && ctxLen >= 8 && dh >= 8 {
		n8 := ctxLen &^ 7
		dh8 := dh &^ 7
		attnScores8AVX2(&out[0], &q[0], &k[0], n8, dh8, dh)
		if dh8 != dh {
			// Fold the unvectorized p-tail onto each vectorized row: the
			// per-element chain simply continues in ascending p.
			for ; j < n8; j++ {
				row := k[j*dh : (j+1)*dh]
				s := out[j]
				for p := dh8; p < dh; p++ {
					if av := q[p]; av != 0 {
						s += av * row[p]
					}
				}
				out[j] = s
			}
		}
		j = n8
	}
	for ; j < ctxLen; j++ {
		row := k[j*dh : (j+1)*dh]
		var s float32
		for p, av := range q {
			if av == 0 {
				continue
			}
			s += av * row[p]
		}
		out[j] = s
	}
}

// AttnWeightedSumInto accumulates out[j] += Σ_p w[p]·v[p*dh+j] for
// j < dh: the softmax weights against the head's dense ctxLen×dh value
// block. The dense layout makes this exactly one output row of MatMul,
// so it runs the row kernel (register accumulators, ascending-p term
// order, zero-skip on w) instead of the per-term strided axpy loop the
// full-width layout forced.
func AttnWeightedSumInto(out, w, v []float32, ctxLen, dh int) {
	rowAcc(out[:dh], w, v, ctxLen, 1, dh)
}
