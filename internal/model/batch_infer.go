package model

import (
	"sync"

	"vega/internal/tensor"
)

// Batched inference encoding. EncodeBatch reuses LossBatch's ragged
// packing — samples laid back to back with an offset table, no padding,
// no masks — for the tape-free forward encoder: every row-local op
// (embedding lookup, layer norm, linear projection, GELU, residual add)
// runs batched across all samples in one kernel call wide enough to
// cross the tensor layer's parallel-dispatch gate, while attention — the
// only op that mixes rows — runs the training tape's own forward loop
// (attentionForward), which keeps each sample to its own row range.
// Because each op is row-local, the per-sample results on the float32
// path are bit-identical to the tape's Encode, whether a sample is
// encoded alone or packed with others (kvcache_test.go enforces this),
// and deterministic for any worker count on both paths. A one-sample
// call is the incremental decoder's encoder.

// bufPool recycles the batched encoder's float32 temporaries (x, h and
// the per-layer projection outputs). Only scratch that dies inside
// EncodeBatch goes through it — the returned memories are always freshly
// allocated, since callers retain them.
var bufPool sync.Pool

// getBuf returns a float32 buffer of length n, reusing pooled backing
// storage when it is large enough. A reused buffer is not zeroed: it
// holds whatever its last user left, so callers write every element
// before reading it.
func getBuf(n int) []float32 {
	p, _ := bufPool.Get().(*[]float32)
	if p == nil || cap(*p) < n {
		if p != nil {
			bufPool.Put(p)
		}
		return make([]float32, n)
	}
	return (*p)[:n]
}

func putBuf(s []float32) {
	s = s[:0]
	bufPool.Put(&s)
}

// EncodeBatch encodes several inputs at once and returns one memory per
// input (each a rows×Dim flat slice into a shared backing array; treat
// them as read-only). quantized routes the linear projections through
// the int8 weight view.
func (t *Transformer) EncodeBatch(inputs [][]int, quantized bool) [][]float32 {
	n := len(inputs)
	if n == 0 {
		return nil
	}
	dim := t.Cfg.Dim
	var qv *qView
	if quantized {
		qv = t.quantView()
	}
	offs := make([]int, n+1)
	clamped := make([][]int, n)
	maxRows := 0
	for i, in := range inputs {
		clamped[i] = t.clampSeq(in)
		offs[i+1] = offs[i] + len(clamped[i])
		if len(clamped[i]) > maxRows {
			maxRows = len(clamped[i])
		}
	}
	rows := offs[n]
	ffw := dim
	for _, l := range t.Enc {
		if c := l.FF.In.W.C; c > ffw {
			ffw = c
		}
	}
	x := getBuf(rows * dim)
	for s, in := range clamped {
		base := offs[s]
		for i, tok := range in {
			er := t.Embed.Row(tok)
			pr := t.PosEnc.Row(i)
			row := x[(base+i)*dim : (base+i+1)*dim]
			for j := range row {
				row[j] = er[j] + pr[j]
			}
		}
	}
	// The pooled buffers come back unzeroed, and each is written before it
	// is read: h by layer norm; qp, kp, vp, so and f by the projections
	// (which zero their outputs); attn by the per-layer clear below.
	// Attention's scratch — one sample's probability block and its
	// transposed K head — lives in f, which is dead until the feed-forward
	// input projection overwrites it, and is written by attentionForward.
	h := getBuf(rows * dim)
	qp := getBuf(rows * dim)
	kp := getBuf(rows * dim)
	vp := getBuf(rows * dim)
	attn := getBuf(rows * dim)
	so := getBuf(rows * dim)
	f := getBuf(max(rows*ffw, maxRows*(maxRows+dim)))
	probs, headT := f[:maxRows*maxRows], f[maxRows*maxRows:]
	smax, gelu := softmaxRow, geluRow
	if qv != nil {
		smax, gelu = qSoftmaxRow, qGeluRow
	}
	var qm *tensor.QMat
	if qv != nil {
		qm = getQa()
	}
	// qlin batch-quantizes src once, then runs it through each (dst,
	// weight) pair — the encoder quantizes h a single time for all three
	// attention projections.
	qlin := func(src []float32, c int, dsts [][]float32, qls []*qLin) {
		tensor.QuantizeRowsInto(qm, src, rows, c)
		for i, dst := range dsts {
			qLinearRowsFwdPre(dst, qm, qls[i])
		}
	}
	for li, l := range t.Enc {
		var qe *qEncoderLayer
		if qv != nil {
			qe = &qv.enc[li]
		}
		layerNormRows(h, x, rows, l.N1.Gain.Data, l.N1.Bias.Data, nil, nil)
		if qe != nil {
			qlin(h, dim, [][]float32{qp, kp, vp},
				[]*qLin{&qe.attn.wq, &qe.attn.wk, &qe.attn.wv})
		} else {
			linearRowsFwdInto(qp, h, rows, l.Attn.WQ)
			linearRowsFwdInto(kp, h, rows, l.Attn.WK)
			linearRowsFwdInto(vp, h, rows, l.Attn.WV)
		}
		clear(attn)
		attentionForward(attn, qp, kp, vp, dim, l.Attn.Heads, offs, offs, false,
			probs, false, headT, smax)
		if qe != nil {
			qlin(attn, dim, [][]float32{so}, []*qLin{&qe.attn.wo})
		} else {
			linearRowsFwdInto(so, attn, rows, l.Attn.WO)
		}
		tensor.Axpy(x, so, 1)
		layerNormRows(h, x, rows, l.N2.Gain.Data, l.N2.Bias.Data, nil, nil)
		fl := f[:rows*l.FF.In.W.C]
		// so is dead after the attention residual; reuse it for the
		// feed-forward output.
		if qe != nil {
			qlin(h, dim, [][]float32{fl}, []*qLin{&qe.ffIn})
			gelu(fl)
			qlin(fl, l.FF.In.W.C, [][]float32{so}, []*qLin{&qe.ffOut})
		} else {
			linearRowsFwdInto(fl, h, rows, l.FF.In)
			gelu(fl)
			linearRowsFwdInto(so, fl, rows, l.FF.Out)
		}
		tensor.Axpy(x, so, 1)
	}
	if qm != nil {
		qaPool.Put(qm)
	}
	out := make([]float32, rows*dim)
	layerNormRows(out, x, rows, t.NormE.Gain.Data, t.NormE.Bias.Data, nil, nil)
	for _, b := range [][]float32{x, h, qp, kp, vp, attn, so, f} {
		putBuf(b)
	}
	mems := make([][]float32, n)
	for s := 0; s < n; s++ {
		mems[s] = out[offs[s]*dim : offs[s+1]*dim]
	}
	return mems
}
