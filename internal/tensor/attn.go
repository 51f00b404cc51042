package tensor

// AttnWeightedSumInto accumulates out[j] += Σ_p w[p]·v[p*dh+j] for
// j < dh: the softmax weights against one head's dense ctxLen×dh value
// block (the Stage 3 decoder keeps its values head-contiguous). The
// dense layout makes this exactly one output row of MatMul, so it runs
// the row kernel (register accumulators, ascending-p term order,
// zero-skip on w) instead of a per-term strided axpy loop over
// full-width rows. The attention scores need no kernel of their own:
// against keys stored transposed (dh×ctxLen), a score row is one
// MulRowInto, and a block of them one MatMulStrided.
func AttnWeightedSumInto(out, w, v []float32, ctxLen, dh int) {
	rowAcc(out[:dh], w, v, ctxLen, 1, dh)
}
