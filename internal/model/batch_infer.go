package model

import "vega/internal/tensor"

// Batched inference encoding. EncodeBatch reuses LossBatch's ragged
// packing — samples laid back to back with an offset table, no padding,
// no masks — for the tape-free forward encoder: every row-local op
// (embedding lookup, layer norm, linear projection, GELU, residual add)
// runs batched across all samples in one kernel call wide enough to
// cross the tensor layer's parallel-dispatch gate, while attention — the
// only op that mixes rows — runs the training tape's own forward loop
// (attentionForward), which keeps each sample to its own row range.
// Because each op is row-local, the per-sample results are bit-identical
// to the tape's Encode, whether a sample is encoded alone or packed with
// others (kvcache_test.go enforces this), and deterministic for any
// worker count. A one-sample call is the incremental decoder's encoder.
//
// Temporaries come as one recycled scratch set per call (encScratch),
// not one buffer at a time from a pool holding every size: a set's
// buffers keep the shape of the largest batch it has served, so
// steady-state encoding allocates only the returned memories, which
// callers retain.

// encScratch is EncodeBatch's working set: the residual stream x, the
// layer-norm output h, the q/k/v projections, the attention output, the
// sublayer output so, the feed-forward hidden block f and the sample
// offsets. Buffers only grow and are not cleared between uses: each is
// written before it is read.
type encScratch struct {
	x, h, qp, kp, vp, attn, so, f []float32
	offs                          []int
}

// takeEncScratch takes an idle scratch set from the transformer's free
// list, or a new empty one. The list holds one set per concurrent
// caller: each Stage 3 worker encodes one function's rows per call, then
// decodes them (and, when asked, verifies them) before its next encode.
// It is not a sync.Pool on purpose: a sync.Pool drops idle items at the
// second garbage collection, so a worker whose decode and verify span
// two collections would allocate its set afresh, while the free list
// keeps each set, grown to the largest function it has encoded.
func (t *Transformer) takeEncScratch() *encScratch {
	t.encMu.Lock()
	defer t.encMu.Unlock()
	n := len(t.encFree)
	if n == 0 {
		return new(encScratch)
	}
	sc := t.encFree[n-1]
	t.encFree = t.encFree[:n-1]
	return sc
}

// putEncScratch returns a set taken with takeEncScratch.
func (t *Transformer) putEncScratch(sc *encScratch) {
	t.encMu.Lock()
	t.encFree = append(t.encFree, sc)
	t.encMu.Unlock()
}

// grow returns buf resized to n, reallocating only when its capacity is
// short; the contents are not preserved.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// EncodeBatch encodes several inputs at once and returns one memory per
// input (each a rows×Dim flat slice into a shared backing array; treat
// them as read-only).
//
// quantized is ignored: it stays only until a benchmark change drops
// perfbench's model.step_q_us probe, which still passes it.
func (t *Transformer) EncodeBatch(inputs [][]int, quantized bool) [][]float32 {
	n := len(inputs)
	if n == 0 {
		return nil
	}
	dim := t.Cfg.Dim
	sc := t.takeEncScratch()
	sc.offs = grow(sc.offs, n+1)
	offs := sc.offs
	offs[0] = 0
	maxRows := 0
	for i, in := range inputs {
		r := len(t.clampSeq(in))
		offs[i+1] = offs[i] + r
		maxRows = max(maxRows, r)
	}
	rows := offs[n]
	ffw := dim
	for _, l := range t.Enc {
		ffw = max(ffw, l.FF.In.W.C)
	}
	sc.x = grow(sc.x, rows*dim)
	x := sc.x
	for s, in := range inputs {
		base := offs[s]
		for i, tok := range t.clampSeq(in) {
			er := t.Embed.Row(tok)
			pr := t.PosEnc.Row(i)
			row := x[(base+i)*dim : (base+i+1)*dim]
			for j := range row {
				row[j] = er[j] + pr[j]
			}
		}
	}
	// Each scratch buffer is written before it is read: h by layer norm;
	// qp, kp, vp, so and f by the projections (which zero their outputs);
	// attn by the per-layer clear below. Attention's scratch — one
	// sample's probability block and its transposed K head — lives in f,
	// which is dead until the feed-forward input projection overwrites
	// it, and is written by attentionForward.
	sc.h, sc.qp, sc.kp = grow(sc.h, rows*dim), grow(sc.qp, rows*dim), grow(sc.kp, rows*dim)
	sc.vp, sc.attn, sc.so = grow(sc.vp, rows*dim), grow(sc.attn, rows*dim), grow(sc.so, rows*dim)
	sc.f = grow(sc.f, max(rows*ffw, maxRows*(maxRows+dim)))
	h, qp, kp, vp, attn, so, f := sc.h, sc.qp, sc.kp, sc.vp, sc.attn, sc.so, sc.f
	probs, headT := f[:maxRows*maxRows], f[maxRows*maxRows:]
	for _, l := range t.Enc {
		tensor.LayerNormRows(h, x, rows, l.N1.Gain.Data, l.N1.Bias.Data, nil, nil)
		linearRowsFwdInto(qp, h, rows, l.Attn.WQ)
		linearRowsFwdInto(kp, h, rows, l.Attn.WK)
		linearRowsFwdInto(vp, h, rows, l.Attn.WV)
		clear(attn)
		attentionForward(attn, qp, kp, vp, dim, l.Attn.Heads, offs, offs, false,
			probs, false, headT)
		linearRowsFwdInto(so, attn, rows, l.Attn.WO)
		tensor.Axpy(x, so, 1)
		tensor.LayerNormRows(h, x, rows, l.N2.Gain.Data, l.N2.Bias.Data, nil, nil)
		fl := f[:rows*l.FF.In.W.C]
		// so is dead after the attention residual; reuse it for the
		// feed-forward output.
		linearRowsFwdInto(fl, h, rows, l.FF.In)
		geluRow(fl)
		linearRowsFwdInto(so, fl, rows, l.FF.Out)
		tensor.Axpy(x, so, 1)
	}
	out := make([]float32, rows*dim)
	tensor.LayerNormRows(out, x, rows, t.NormE.Gain.Data, t.NormE.Bias.Data, nil, nil)
	mems := make([][]float32, n)
	for s := 0; s < n; s++ {
		mems[s] = out[offs[s]*dim : offs[s+1]*dim]
	}
	t.putEncScratch(sc)
	return mems
}
