package model

import (
	"fmt"
	"math"

	"vega/internal/tensor"
)

// Attention runs multi-head scaled dot-product attention over a whole
// ragged batch as one tape node. q packs the samples' query rows back
// to back (sample s at rows [qOffs[s], qOffs[s+1])), and k and v pack
// their memory rows likewise at kOffs. All three are full-width
// projections whose columns [h·dh, (h+1)·dh) belong to head h, with
// dh = q.C/heads. Query row i of a sample attends over that sample's
// key rows only; causal further limits it to keys j ≤ i. The result
// has q's shape, with each head's output in that head's columns.
//
// The forward is attentionForward, the same loop the inference encoder
// runs. No mask is allocated, and the probabilities are the only state
// the backward keeps.
//
// Every output and gradient has the bits of the composed graph this op
// replaces: per-sample row slices, per-head column slices,
// MatMul(qh, Transpose(kh)), Scale, masked Softmax, MatMul(·, vh) and
// the concatenations back (attention_test.go keeps that graph as the
// reference). The backward accumulates straight into q, k and v's
// gradient buffers. For q and v that gives the composed graph's bits
// when those buffers hold zeros on entry, as they do when the op is
// their only consumer (MHA's projections).
func (tp *Tape) Attention(q, k, v *Tensor, qOffs, kOffs []int, heads int, causal bool) *Tensor {
	d := q.C
	if k.C != d || v.C != d || k.R != v.R || heads < 1 || d%heads != 0 ||
		len(qOffs) != len(kOffs) || qOffs[len(qOffs)-1] != q.R || kOffs[len(kOffs)-1] != k.R {
		panic(fmt.Sprintf("model: Attention q %dx%d, k %dx%d, v %dx%d, %d heads, %d/%d offsets",
			q.R, q.C, k.R, k.C, v.R, v.C, heads, len(qOffs), len(kOffs)))
	}
	dh := d / heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	ns := len(qOffs) - 1

	// One lq×lk probability block per (sample, head), sample-major.
	total, maxBlock, maxLk := 0, 0, 0
	for s := 0; s < ns; s++ {
		lq, lk := qOffs[s+1]-qOffs[s], kOffs[s+1]-kOffs[s]
		total += heads * lq * lk
		maxBlock = max(maxBlock, lq*lk)
		maxLk = max(maxLk, lk)
	}
	probs := tp.arena.AllocNoZero(total)
	headT := tp.arena.AllocNoZero(d * maxLk)
	out := tp.newTensor(q.R, d)
	attentionForward(out.Data, q.Data, k.Data, v.Data, d, heads, qOffs, kOffs, causal,
		probs, true, headT)

	return tp.record(out, func() {
		if q.R == 0 {
			return
		}
		// The composed graph first touched v, then k, then q.
		var gq, gk, gv []float32
		if v.requiresGrad {
			gv = tp.g(v)
		}
		if k.requiresGrad {
			gk = tp.g(k)
		}
		if q.requiresGrad {
			gq = tp.g(q)
		}
		// Scratch, reused across (sample, head): the score gradient, V's
		// head transposed, and K's head gradient transposed.
		var dsBuf, vT, dkT []float32
		if gq != nil || gk != nil {
			dsBuf = tp.arena.AllocNoZero(maxBlock)
			vT = tp.arena.AllocNoZero(dh * maxLk)
		}
		if gk != nil {
			dkT = tp.arena.AllocNoZero(dh * maxLk)
		}
		dOut := out.Grad
		off := 0
		for s := 0; s < ns; s++ {
			q0, k0 := qOffs[s], kOffs[s]
			lq, lk := qOffs[s+1]-q0, kOffs[s+1]-k0
			for h := 0; h < heads; h++ {
				ho := h * dh
				pb := probs[off : off+lq*lk]
				off += lq * lk
				if gv != nil {
					// dV = Pᵀ·dOut, P read down its columns.
					tensor.MatMulStrided(gv[k0*d+ho:], d, pb, 1, lk, dOut[q0*d+ho:], d, lk, lq, dh)
				}
				if dsBuf == nil {
					continue
				}
				// dP = dOut·Vᵀ, then the softmax and scale backward in
				// place. The composed graph summed each of these into a
				// zeroed buffer, which only turns a -0 into +0; the
				// products below skip ±0 alike or add it to a sum that
				// is never -0, so the sign of a zero here changes no bit.
				ds := dsBuf[:lq*lk]
				clear(ds)
				vTh := tensor.TransposeInto(vT, v.Data[k0*d+ho:], lk, dh, d)
				tensor.MatMulStrided(ds, lk, dOut[q0*d+ho:], d, 1, vTh, lk, lq, dh, lk)
				for i := 0; i < lq; i++ {
					prow, grow := pb[i*lk:(i+1)*lk], ds[i*lk:(i+1)*lk]
					var dot float32
					for j, p := range prow {
						dot += p * grow[j]
					}
					for j, p := range prow {
						grow[j] = scale * (p * (grow[j] - dot))
					}
				}
				if gq != nil {
					// dQ = dS·K.
					tensor.MatMulStrided(gq[q0*d+ho:], d, ds, lk, 1, k.Data[k0*d+ho:], d, lq, lk, dh)
				}
				if gk != nil {
					// dKᵀ = Qᵀ·dS keeps the zero-skip on Q's values, as
					// the composed MatMul(qh, khT) backward did; it is
					// then added into k's gradient transposed.
					kt := dkT[:dh*lk]
					clear(kt)
					tensor.MatMulStrided(kt, lk, q.Data[q0*d+ho:], 1, d, ds, lk, dh, lq, lk)
					for c := 0; c < dh; c++ {
						ktr := kt[c*lk : (c+1)*lk]
						for j, x := range ktr {
							gk[(k0+j)*d+ho+c] += x
						}
					}
				}
			}
		}
	}, q, k, v)
}

// attentionForward is Attention's forward pass without a tape: it adds
// the attention output of every (sample, head) into out (q's shape,
// zeroed by the caller) from the full-width q, k and v rows. Per sample
// it transposes all of K's heads at once into headT (d·max lk floats);
// per (sample, head) it computes Q·Kᵀ into a zeroed lq×lk probability
// block with tensor.MatMulStrided, scales it, adds the causal mask and
// applies the softmax to each row (tensor.SoftmaxBlock), and accumulates
// P·V straight from V's full-width rows. With keep, the blocks lie back
// to back in probs (sample-major, heads inside), which the tape's
// backward reads; without it, probs holds one block of the largest lq·lk
// and every (sample, head) reuses it.
//
// Each score is one ascending-p float32 chain with the zero-skip on q,
// and each output element one ascending-j chain with the zero-skip on
// P, so the training tape and the inference encoder get the same bits
// from this one loop.
func attentionForward(out, q, k, v []float32, d, heads int, qOffs, kOffs []int, causal bool,
	probs []float32, keep bool, headT []float32) {
	dh := d / heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	off := 0
	for s := 0; s+1 < len(qOffs); s++ {
		q0, k0 := qOffs[s], kOffs[s]
		lq, lk := qOffs[s+1]-q0, kOffs[s+1]-k0
		// Head h's Kᵀ is rows [h·dh, (h+1)·dh) of the sample's d×lk Kᵀ.
		kT := tensor.TransposeInto(headT, k[k0*d:], lk, d, d)
		for h := 0; h < heads; h++ {
			ho := h * dh
			pb := probs[off : off+lq*lk]
			if keep {
				off += lq * lk
			}
			// Scores = Q·Kᵀ, zero-skip on Q as MatMul(qh, khT) had.
			clear(pb)
			tensor.MatMulStrided(pb, lk, q[q0*d+ho:], d, 1, kT[ho*lk:], lk, lq, dh, lk)
			// Scale, the causal mask (+0 up to the diagonal, −Inf past
			// it) and the row softmax, one kernel call per block.
			tensor.SoftmaxBlock(pb, lq, lk, scale, causal)
			tensor.MatMulStrided(out[q0*d+ho:], d, pb, lk, 1, v[k0*d+ho:], d, lq, lk, dh)
		}
	}
}
