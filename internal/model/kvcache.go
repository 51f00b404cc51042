package model

import (
	"math"

	"vega/internal/tensor"
)

// This file implements the fast Stage 3 inference path: a tape-free
// forward encoder plus an incremental decoder with a per-sequence KV
// cache. The reference decoder (ReferenceDecoder in decode.go) re-runs
// the whole decoder stack over the full prefix at every emitted token —
// O(L²) decoder row computations per statement — and pays tape-recording
// overhead (gradient buffers, closures, node lists) for ops that will
// never be differentiated. The cached path feeds only the newest token
// per step, reusing
//
//   - the encoder memory, computed once per sequence without a tape,
//   - each decoder layer's cross-attention K/V projections of that
//     memory, computed once per sequence, and
//   - each decoder layer's self-attention K/V rows for every previously
//     fed position, appended as decoding advances,
//
// for O(L) decoder row computations and zero autodiff bookkeeping.
//
// The outputs are bit-identical to the reference path. Every helper
// below mirrors the per-element accumulation order of the corresponding
// Tape op — the internal/tensor kernels' ascending-k terms with the
// zero-skip (see that package's determinism contract), LayerNorm's
// float32 mean/variance accumulation, Softmax's max-shift — so the
// float32 results match exactly, not just approximately. The
// differential tests in kvcache_test.go enforce this invariant; keep the
// helpers in lockstep with tensor.go and internal/tensor when changing
// any of them.

// IncrementalDecoder is the KV-cached Decoder: it decodes one output
// sequence token by token against a fixed encoder memory. It is cheap to
// Clone, which beam search uses to branch hypotheses without re-decoding
// their shared prefix. A decoder is single-goroutine; distinct decoders
// over the same (read-only) Transformer may run concurrently.
type IncrementalDecoder struct {
	t      *Transformer
	memR   int             // encoder memory rows
	layers []decLayerCache // one per decoder layer
	pos    int             // next position to be fed
	scr    *decScratch     // lazily allocated, never shared across clones

	// quant switches Step's linears and logits onto the int8 weight view
	// (nil = exact float32 path). ambiguous latches when any step's top-2
	// logit margin falls under QuantMargin: the quantized argmax may then
	// differ from float32, and the caller should re-decode that row at
	// full precision.
	quant     *qView
	ambiguous bool
}

// decScratch holds the per-decoder buffers Step reuses between calls, so
// a long decode performs no per-step allocations. The logits slice Step
// returns aliases one of them.
type decScratch struct {
	x, h, q, attn, o, st []float32
	k, v                 []float32 // full-width K/V projection rows, scattered per head
	f                    []float32 // feed-forward hidden row
	scores               []float32 // attention scores, MaxSeq wide
	logits               []float32
	qrow                 []int8 // quantized-activation row (quant path)
}

// decLayerCache holds one decoder layer's attention state, head-major:
// one dense ctxLen×dh block per head, so attention scores and weighted
// sums run the dense tensor.AttnScoresInto/AttnWeightedSumInto kernels
// instead of strided dots over full-width rows. crossK/crossV are
// computed once per sequence and shared (read-only) across clones;
// selfK/selfV grow by one dh-wide row per head per fed token and are
// copied on Clone. Each head's block grows independently (growKV), so
// capacity doubling never repacks across heads.
type decLayerCache struct {
	selfK, selfV   [][]float32 // per head: pos×dh, appended per step
	crossK, crossV [][]float32 // per head: memR×dh, fixed per sequence
}

// NewIncrementalDecoder runs the encoder over input and precomputes the
// per-layer cross-attention projections of the memory.
func (t *Transformer) NewIncrementalDecoder(input []int) *IncrementalDecoder {
	return t.NewIncrementalDecoderFromMemory(t.forwardEncode(input), false)
}

// NewIncrementalDecoderFromMemory builds a decoder over an
// already-computed encoder memory (a flat rows×Dim slice, e.g. one
// sample's slice of an EncodeBatch result; it is only read). quantized
// routes the cross projections here and every per-step linear plus the
// logits through the int8 weight view; the float32 path is bit-identical
// to NewIncrementalDecoder.
func (t *Transformer) NewIncrementalDecoderFromMemory(mem []float32, quantized bool) *IncrementalDecoder {
	d := &IncrementalDecoder{t: t, memR: len(mem) / t.Cfg.Dim}
	if quantized {
		d.quant = t.quantView()
	}
	d.layers = make([]decLayerCache, len(t.Dec))
	var qm *tensor.QMat
	if d.quant != nil {
		// One activation quantization of the memory serves every layer's
		// cross K/V projection.
		qm = getQa()
		tensor.QuantizeRowsInto(qm, mem, d.memR, t.Cfg.Dim)
	}
	// The cross projections are computed full-width (one batched kernel
	// call over the memory rows), then repacked into per-head dense
	// blocks; tmp is reused across layers.
	tmp := make([]float32, d.memR*t.Cfg.Dim)
	for li, l := range t.Dec {
		dh := l.Cross.D / l.Cross.Heads
		if d.quant != nil {
			qLinearRowsFwdPre(tmp, qm, &d.quant.dec[li].cross.wk)
			d.layers[li].crossK = splitHeads(tmp, d.memR, l.Cross.Heads, dh)
			qLinearRowsFwdPre(tmp, qm, &d.quant.dec[li].cross.wv)
			d.layers[li].crossV = splitHeads(tmp, d.memR, l.Cross.Heads, dh)
		} else {
			linearRowsFwdInto(tmp, mem, d.memR, l.Cross.WK)
			d.layers[li].crossK = splitHeads(tmp, d.memR, l.Cross.Heads, dh)
			linearRowsFwdInto(tmp, mem, d.memR, l.Cross.WV)
			d.layers[li].crossV = splitHeads(tmp, d.memR, l.Cross.Heads, dh)
		}
		// selfK/selfV start as empty per-head blocks and grow on demand
		// (growKV): typical decodes emit far fewer than MaxSeq tokens, so
		// pre-sizing to the MaxSeq·Dim bound wasted ~8× the memory a real
		// decode touches and made decoder construction the dominant
		// allocation site.
		d.layers[li].selfK = make([][]float32, l.Self.Heads)
		d.layers[li].selfV = make([][]float32, l.Self.Heads)
	}
	if qm != nil {
		qaPool.Put(qm)
	}
	return d
}

// Ambiguous reports whether any step so far had a top-2 logit margin
// under QuantMargin on the quantized path (always false on the float32
// path); such a decode may disagree with float32 and should be redone at
// full precision by callers that need exactness.
func (d *IncrementalDecoder) Ambiguous() bool { return d.ambiguous }

// Clone branches the decoder: the growing self-attention blocks are
// copied per head, the per-sequence memory projections are shared.
func (d *IncrementalDecoder) Clone() Decoder {
	c := &IncrementalDecoder{t: d.t, memR: d.memR, pos: d.pos,
		quant: d.quant, ambiguous: d.ambiguous}
	c.layers = make([]decLayerCache, len(d.layers))
	for i, l := range d.t.Dec {
		c.layers[i].crossK = d.layers[i].crossK
		c.layers[i].crossV = d.layers[i].crossV
		// Copy with one row of headroom per head so the clone's first Step
		// doesn't immediately reallocate; beyond that it grows like any
		// decoder.
		dh := l.Self.D / l.Self.Heads
		c.layers[i].selfK = cloneKV(d.layers[i].selfK, dh)
		c.layers[i].selfV = cloneKV(d.layers[i].selfV, dh)
	}
	return c
}

// cloneKV copies a head-contiguous K/V cache: each head's dense block is
// copied with headroom for one more dh-wide row.
func cloneKV(s [][]float32, dh int) [][]float32 {
	c := make([][]float32, len(s))
	for h, blk := range s {
		if len(blk) == 0 {
			continue
		}
		c[h] = append(make([]float32, 0, len(blk)+dh), blk...)
	}
	return c
}

// splitHeads repacks n full-width rows (n×(heads·dh), row-major) into
// per-head dense n×dh blocks carved from one fresh backing array.
func splitHeads(src []float32, n, heads, dh int) [][]float32 {
	buf := make([]float32, n*heads*dh)
	views := make([][]float32, heads)
	packHeads(views, buf, src, n, heads, dh)
	return views
}

// packHeads is splitHeads into caller-provided storage: buf must hold
// n·heads·dh floats and views heads entries. The batched encoder calls
// it with pooled buffers.
func packHeads(views [][]float32, buf, src []float32, n, heads, dh int) {
	d := heads * dh
	for h := 0; h < heads; h++ {
		blk := buf[h*n*dh : (h+1)*n*dh]
		off := h * dh
		for i := 0; i < n; i++ {
			copy(blk[i*dh:(i+1)*dh], src[i*d+off:i*d+off+dh])
		}
		views[h] = blk
	}
}

// growKV extends a K/V cache to need elements, doubling the backing
// array when it is full. The amortized growth replaces the old MaxSeq·Dim
// pre-allocation; values are unaffected, so determinism is too.
func growKV(s []float32, need int) []float32 {
	if cap(s) >= need {
		return s[:need]
	}
	ns := make([]float32, need, 2*need)
	copy(ns, s)
	return ns
}

// Pos returns how many tokens have been fed so far (the position the
// next token will occupy).
func (d *IncrementalDecoder) Pos() int { return d.pos }

// scratch returns the decoder's reusable buffers, taking a recycled set
// from the transformer's pool (all decoders over one transformer share
// buffer shapes) or allocating on first use. Step overwrites every
// region it reads, so a dirty pooled scratch cannot affect outputs.
func (d *IncrementalDecoder) scratch() *decScratch {
	if d.scr == nil {
		t := d.t
		if s, ok := t.scrPool.Get().(*decScratch); ok {
			d.scr = s
			return s
		}
		dim := t.Cfg.Dim
		ffw := dim
		for _, l := range t.Dec {
			if c := l.FF.In.W.C; c > ffw {
				ffw = c
			}
		}
		d.scr = &decScratch{
			x: make([]float32, dim), h: make([]float32, dim),
			q: make([]float32, dim), attn: make([]float32, dim),
			o: make([]float32, dim), st: make([]float32, dim),
			k: make([]float32, dim), v: make([]float32, dim),
			f:      make([]float32, ffw),
			scores: make([]float32, t.Cfg.MaxSeq),
			logits: make([]float32, t.Cfg.Vocab),
			qrow:   make([]int8, ffw),
		}
	}
	return d.scr
}

// Release returns the decoder's scratch buffers to the transformer's
// pool. Call it when the decode is finished and the last Step's returned
// logits row is dead; the decoder itself stays valid (a later Step just
// draws fresh scratch), but typical callers release exactly once, after
// the final Step.
func (d *IncrementalDecoder) Release() {
	if d.scr != nil {
		d.t.scrPool.Put(d.scr)
		d.scr = nil
	}
}

// Step feeds one token at the next position and returns the
// next-token logits row. The caller must keep Pos() < Cfg.MaxSeq, the
// same bound the reference path enforces on its growing prefix. The
// returned slice aliases a scratch buffer: it is valid until the next
// Step on this decoder.
func (d *IncrementalDecoder) Step(token int) []float32 {
	t := d.t
	dim := t.Cfg.Dim
	pos := d.pos
	s := d.scratch()
	smax, gelu := softmaxRow, geluRow
	if d.quant != nil {
		smax, gelu = qSoftmaxRow, qGeluRow
	}

	// Token embedding + learned positional embedding (panics past MaxSeq
	// exactly like the reference path's PosEnc lookup would).
	x := s.x
	er := t.Embed.Row(token)
	pr := t.PosEnc.Row(pos)
	for j := range x {
		x[j] = er[j] + pr[j]
	}

	h := s.h
	for li, l := range t.Dec {
		lc := &d.layers[li]
		var qd *qDecoderLayer
		if d.quant != nil {
			qd = &d.quant.dec[li]
		}

		// Self attention: project the new row, scatter its K/V into each
		// head's dense block, attend over every cached position. The
		// newest row is never masked, so the causal softmax degenerates to
		// a plain one.
		layerNormRow(h, x, l.N1.Gain.Data, l.N1.Bias.Data)
		if qd != nil {
			// One quantization of h serves all three projections.
			qa := s.qrow[:dim]
			var sa float32
			tensor.QuantizeRowInto(qa, h, &sa)
			qMulRowPre(s.q, qa, sa, &qd.self.wq)
			qMulRowPre(s.k, qa, sa, &qd.self.wk)
			qMulRowPre(s.v, qa, sa, &qd.self.wv)
		} else {
			linearRowFwdInto(s.q, h, l.Self.WQ)
			linearRowFwdInto(s.k, h, l.Self.WK)
			linearRowFwdInto(s.v, h, l.Self.WV)
		}
		dh := l.Self.D / l.Self.Heads
		n := pos * dh
		for hd := range lc.selfK {
			lc.selfK[hd] = growKV(lc.selfK[hd], n+dh)
			lc.selfV[hd] = growKV(lc.selfV[hd], n+dh)
			copy(lc.selfK[hd][n:], s.k[hd*dh:(hd+1)*dh])
			copy(lc.selfV[hd][n:], s.v[hd*dh:(hd+1)*dh])
		}
		attendRowInto(s.attn, s.scores, s.q, lc.selfK, lc.selfV, pos+1, l.Self, smax)
		if qd != nil {
			qLinearRowFwdInto(s.o, s.attn, s.qrow, &qd.self.wo)
		} else {
			linearRowFwdInto(s.o, s.attn, l.Self.WO)
		}
		for j := range x {
			x[j] += s.o[j]
		}

		// Cross attention over the cached memory projections.
		layerNormRow(h, x, l.N2.Gain.Data, l.N2.Bias.Data)
		if qd != nil {
			qLinearRowFwdInto(s.q, h, s.qrow, &qd.cross.wq)
		} else {
			linearRowFwdInto(s.q, h, l.Cross.WQ)
		}
		attendRowInto(s.attn, s.scores, s.q, lc.crossK, lc.crossV, d.memR, l.Cross, smax)
		if qd != nil {
			qLinearRowFwdInto(s.o, s.attn, s.qrow, &qd.cross.wo)
		} else {
			linearRowFwdInto(s.o, s.attn, l.Cross.WO)
		}
		for j := range x {
			x[j] += s.o[j]
		}

		// Position-wise feed-forward.
		layerNormRow(h, x, l.N3.Gain.Data, l.N3.Bias.Data)
		f := s.f[:l.FF.In.W.C]
		if qd != nil {
			qLinearRowFwdInto(f, h, s.qrow, &qd.ffIn)
			gelu(f)
			qLinearRowFwdInto(s.o, f, s.qrow, &qd.ffOut)
		} else {
			linearRowFwdInto(f, h, l.FF.In)
			gelu(f)
			linearRowFwdInto(s.o, f, l.FF.Out)
		}
		for j := range x {
			x[j] += s.o[j]
		}
	}

	layerNormRow(s.st, x, t.NormD.Gain.Data, t.NormD.Bias.Data)

	// Tied output projection. Float32 path: against the cached Dim×Vocab
	// transpose, logits[j] = Σ_p st[p]·Embed[j][p], accumulated in the
	// same p-outer order MatMul(states, Transpose(Embed)) uses but
	// reading the embedding row-contiguously. Quantized path: the
	// Vocab×Dim embedding is already the NT operand, so the state row is
	// quantized once and dotted against each int8 embedding row; a thin
	// top-2 margin afterwards latches the ambiguity flag.
	logits := s.logits
	if d.quant != nil {
		qa := s.qrow[:dim]
		var sa float32
		tensor.QuantizeRowInto(qa, s.st, &sa)
		for j := range logits {
			logits[j] = 0
		}
		tensor.QMulRowInto(logits, qa, sa, d.quant.embed)
		if top2Margin(logits) < QuantMargin {
			d.ambiguous = true
		}
	} else {
		for j := range logits {
			logits[j] = 0
		}
		mulRowsInto(logits, s.st, t.embedT(), dim, t.Cfg.Vocab, t.Cfg.Vocab, 0)
	}
	d.pos++
	return logits
}

// top2Margin returns the gap between the largest and second-largest
// logit (0 when the row has fewer than two entries).
func top2Margin(row []float32) float32 {
	if len(row) < 2 {
		return 0
	}
	best := float32(math.Inf(-1))
	second := best
	for _, v := range row {
		if v > best {
			second, best = best, v
		} else if v > second {
			second = v
		}
	}
	return best - second
}

// forwardEncode mirrors Encode without recording a tape: same kernels,
// same op order, no gradient buffers. Returns the memory as a flat
// len(input)×Dim row-major slice.
func (t *Transformer) forwardEncode(input []int) []float32 {
	input = t.clampSeq(input)
	dim := t.Cfg.Dim
	n := len(input)
	x := make([]float32, n*dim)
	for i, tok := range input {
		er := t.Embed.Row(tok)
		pr := t.PosEnc.Row(i)
		row := x[i*dim : (i+1)*dim]
		for j := range row {
			row[j] = er[j] + pr[j]
		}
	}
	h := make([]float32, n*dim)
	for _, l := range t.Enc {
		layerNormRows(h, x, n, l.N1.Gain.Data, l.N1.Bias.Data)
		attn := attendRows(h, h, n, n, l.Attn)
		so := linearRowsFwd(attn, n, l.Attn.WO)
		for j := range x {
			x[j] += so[j]
		}
		layerNormRows(h, x, n, l.N2.Gain.Data, l.N2.Bias.Data)
		f := linearRowsFwd(h, n, l.FF.In)
		geluRow(f)
		fo := linearRowsFwd(f, n, l.FF.Out)
		for j := range x {
			x[j] += fo[j]
		}
	}
	out := make([]float32, n*dim)
	layerNormRows(out, x, n, t.NormE.Gain.Data, t.NormE.Bias.Data)
	return out
}

// --- forward-only kernels, each mirroring a Tape op's float order.
// The heavy ones live in internal/tensor (see its determinism contract);
// these wrappers keep the decoder's call sites in visible lockstep with
// the tape ops above. ---

// mulRowsInto accumulates out[j] += a[p]·b[p*stride+off+j] for j < cols,
// p < rows: one output row of matmul against a sub-matrix of b, in
// matmul's per-element term order with the zero-skip.
func mulRowsInto(out, a, b []float32, rows, cols, stride, off int) {
	tensor.MulRowInto(out, a, b, rows, cols, stride, off)
}

// linearRowFwdInto computes x·W + b for one row into out, mirroring
// Linear.Apply.
func linearRowFwdInto(out, x []float32, l *Linear) {
	for j := range out {
		out[j] = 0
	}
	mulRowsInto(out, x, l.W.Data, l.W.R, l.W.C, l.W.C, 0)
	for j := range out {
		out[j] += l.B.Data[j]
	}
}

// linearRowsFwd computes x·W + b for n rows of a flat row-major slice.
func linearRowsFwd(x []float32, n int, l *Linear) []float32 {
	out := make([]float32, n*l.W.C)
	linearRowsFwdInto(out, x, n, l)
	return out
}

// linearRowsFwdInto is linearRowsFwd into caller-provided out (len
// n·W.C, overwritten) — the batched encoder reuses pooled buffers
// through it.
func linearRowsFwdInto(out, x []float32, n int, l *Linear) {
	for i := range out {
		out[i] = 0
	}
	matmul(out, x, l.W.Data, n, l.W.R, l.W.C)
	for i := 0; i < n; i++ {
		row := out[i*l.W.C : (i+1)*l.W.C]
		for j := range row {
			row[j] += l.B.Data[j]
		}
	}
}

// attendRowInto runs multi-head attention for a single query row over
// ctxLen cached head-contiguous K/V blocks into out: per head, scores →
// scale → softmax → weighted sum, written into the head's slice of the
// output (the HConcat layout). k and v hold one dense ctxLen×dh block
// per head. scores is caller-provided scratch of at least ctxLen
// elements. smax is the softmax to apply per head — softmaxRow on the
// exact float32 path, qSoftmaxRow on the quantized one. The dense
// kernels produce the same bits as strided dot products and MulRowInto
// over full-width rows (attn_test.go in internal/tensor pins the seam),
// so this layout change is invisible in the outputs.
func attendRowInto(out, scores, q []float32, k, v [][]float32, ctxLen int, m *MHA, smax func([]float32)) {
	dh := m.D / m.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	for j := range out {
		out[j] = 0
	}
	scores = scores[:ctxLen]
	for h := 0; h < m.Heads; h++ {
		off := h * dh
		tensor.AttnScoresInto(scores, q[off:off+dh], k[h], ctxLen, dh)
		for j := range scores {
			scores[j] *= scale
		}
		smax(scores)
		tensor.AttnWeightedSumInto(out[off:off+dh], scores, v[h], ctxLen, dh)
	}
}

// attendRows is attendRow over n query rows (the encoder's full
// self-attention; no mask). The full-width K/V projections are repacked
// head-contiguous once, then every query row attends via the dense
// kernels.
func attendRows(q, kv []float32, n, ctxLen int, m *MHA) []float32 {
	qp := linearRowsFwd(q, n, m.WQ)
	kp := linearRowsFwd(kv, ctxLen, m.WK)
	vp := linearRowsFwd(kv, ctxLen, m.WV)
	dh := m.D / m.Heads
	kh := splitHeads(kp, ctxLen, m.Heads, dh)
	vh := splitHeads(vp, ctxLen, m.Heads, dh)
	out := make([]float32, n*m.D)
	attendRowsPre(out, qp, kh, vh, make([]float32, ctxLen), n, ctxLen, m, softmaxRow)
	return out
}

// attendRowsPre is the attention core after the Q/K/V projections:
// per-head scaled dot-product of full-width query rows against
// head-contiguous K/V blocks (one dense ctxLen×dh block per head),
// written into out (which must start zeroed). Factored out so the
// batched inference encoder can project all samples in one kernel call,
// repack each sample's K/V head-major, and attend over its own row
// range — the per-row math, and therefore the floats, are identical
// either way. scores is caller scratch of at least ctxLen elements.
// smax selects the per-head softmax (exact softmaxRow vs the quantized
// path's qSoftmaxRow).
func attendRowsPre(out, qp []float32, kh, vh [][]float32, scores []float32, n, ctxLen int, m *MHA, smax func([]float32)) {
	dh := m.D / m.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	scores = scores[:ctxLen]
	for h := 0; h < m.Heads; h++ {
		off := h * dh
		for i := 0; i < n; i++ {
			tensor.AttnScoresInto(scores, qp[i*m.D+off:i*m.D+off+dh], kh[h], ctxLen, dh)
			for j := range scores {
				scores[j] *= scale
			}
			smax(scores)
			tensor.AttnWeightedSumInto(out[i*m.D+off:i*m.D+off+dh], scores, vh[h], ctxLen, dh)
		}
	}
}

// layerNormRow mirrors LayerNorm's forward pass for one row.
func layerNormRow(dst, src, gain, bias []float32) {
	const eps = 1e-5
	var mean float32
	for _, v := range src {
		mean += v
	}
	mean /= float32(len(src))
	var vr float32
	for _, v := range src {
		d := v - mean
		vr += d * d
	}
	vr /= float32(len(src))
	is := float32(1 / math.Sqrt(float64(vr)+eps))
	for j, v := range src {
		dst[j] = (v-mean)*is*gain[j] + bias[j]
	}
}

// layerNormRows applies layerNormRow to n rows of a flat slice.
func layerNormRows(dst, src []float32, n int, gain, bias []float32) {
	c := len(gain)
	for i := 0; i < n; i++ {
		layerNormRow(dst[i*c:(i+1)*c], src[i*c:(i+1)*c], gain, bias)
	}
}

// softmaxRow mirrors Softmax's forward pass for one unmasked row.
func softmaxRow(row []float32) { tensor.SoftmaxRow(row, row) }

// geluRow mirrors GELU's forward pass in place.
func geluRow(xs []float32) { tensor.GELURow(xs, xs, nil) }

// --- quantized-path approximations. The int8 decode is already inexact
// (guarded by the QuantMargin ambiguity fallback), so its softmax and
// GELU use tensor's float32 polynomials instead of the exact float64
// math.Exp/math.Tanh replicas the float32 path above runs. ---

// qSoftmaxRow is softmaxRow with FastExp32.
func qSoftmaxRow(row []float32) {
	maxv := float32(math.Inf(-1))
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for j, v := range row {
		e := tensor.FastExp32(v - maxv)
		row[j] = e
		sum += e
	}
	if sum > 0 {
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// qGeluRow is geluRow with FastTanh32, in float32 throughout.
func qGeluRow(xs []float32) {
	const c0 = float32(0.7978845608028654) // sqrt(2/pi)
	for i, v := range xs {
		xs[i] = 0.5 * v * (1 + tensor.FastTanh32(c0*(v+0.044715*v*v*v)))
	}
}
