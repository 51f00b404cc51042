package model

import (
	"fmt"
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
//     fed position, written in place as decoding advances,
//
// for O(L) decoder row computations and zero autodiff bookkeeping.
//
// All of a decoder's buffers live in one decState of fixed shape: every
// K/V block is sized for MaxSeq positions, the bound both the encoder
// (clampSeq) and the positional table put on a sequence, so neither
// construction nor Step ever allocates or moves cached rows. The states
// are recycled through the Transformer's pool: a decoder takes one when
// it is built and returns it on Release, so a backend's hundreds of
// short decodes reuse a handful of states instead of allocating fresh
// projection blocks per row.
//
// The outputs are bit-identical to the reference path. Layer norm is
// the tape's own tensor.LayerNormRows, and every other helper below
// mirrors the per-element accumulation order of the corresponding Tape
// op — the internal/tensor kernels' ascending-k terms with the
// zero-skip (see that package's determinism contract), Softmax's
// max-shift — so the float32 results match exactly, not just
// approximately. The differential tests in kvcache_test.go and
// kvcache_layout_test.go enforce this invariant; keep the helpers in
// lockstep with tensor.go, attention.go and internal/tensor when
// changing any of them.

// IncrementalDecoder is the KV-cached Decoder: it decodes one output
// sequence token by token against a fixed encoder memory. A decoder is
// single-goroutine; distinct decoders over the same (read-only)
// Transformer may run concurrently.
type IncrementalDecoder struct {
	t    *Transformer
	memR int       // encoder memory rows
	pos  int       // next position to be fed
	st   *decState // owned exclusively; nil once released
}

// decState is one decoder's pooled storage: Step's scratch, every
// layer's attention cache and the staging buffer the cross projections
// pass through. All decoders over one Transformer share its shape. A
// recycled state is not cleared; every region is written before it is
// read (the cross blocks at construction, a self-attention position
// when it is fed, the scratch within each Step).
type decState struct {
	decScratch
	layers []decLayerCache // one per decoder layer
	proj   []float32       // MaxSeq×Dim: one cross projection, row-major
}

// decScratch holds the buffers Step reuses between calls, so a long
// decode performs no per-step allocations. The logits slice Step
// returns aliases one of them.
type decScratch struct {
	x, h, q, attn, o, st []float32
	k, v                 []float32 // the fed token's full-width K/V projection rows
	f                    []float32 // feed-forward hidden row
	scores               []float32 // attention scores, MaxSeq wide
	logits               []float32
}

// decLayerCache holds one decoder layer's attention state. Keys are
// stored transposed: per head a dh×ctx block, the heads stacked into one
// Dim×ctx matrix, so a head's score row is one tensor.MulRowInto of the
// query's dh values against dh contiguous key rows. Values stay
// head-contiguous, one dense ctx×dh block per head, under
// tensor.AttnWeightedSumInto. Every block has room for MaxSeq positions.
type decLayerCache struct {
	selfK  []float32   // Dim×MaxSeq; column j holds position j's key
	selfV  [][]float32 // per head: MaxSeq×dh; row j holds position j's value
	crossK []float32   // the memory's keys as Dim×memR (room for memR = MaxSeq)
	crossV [][]float32 // per head: memR×dh values (room for MaxSeq rows)
}

// newDecState allocates a state for t's shape, carving every float32
// buffer from one backing array.
func newDecState(t *Transformer) *decState {
	dim, maxSeq := t.Cfg.Dim, t.Cfg.MaxSeq
	ffw := dim
	heads := 0
	for _, l := range t.Dec {
		ffw = max(ffw, l.FF.In.W.C)
		heads += l.Self.Heads + l.Cross.Heads
	}
	block := dim * maxSeq
	buf := make([]float32, 8*dim+ffw+maxSeq+t.Cfg.Vocab+(4*len(t.Dec)+1)*block)
	take := func(n int) []float32 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	views := make([][]float32, heads)
	split := func(blk []float32, nh int) [][]float32 {
		hs := views[:nh:nh]
		views = views[nh:]
		n := len(blk) / nh
		for h := range hs {
			hs[h] = blk[h*n : (h+1)*n : (h+1)*n]
		}
		return hs
	}
	s := &decState{
		decScratch: decScratch{
			x: take(dim), h: take(dim), q: take(dim), attn: take(dim),
			o: take(dim), st: take(dim), k: take(dim), v: take(dim),
			f: take(ffw), scores: take(maxSeq), logits: take(t.Cfg.Vocab),
		},
		layers: make([]decLayerCache, len(t.Dec)),
		proj:   take(block),
	}
	for li, l := range t.Dec {
		s.layers[li] = decLayerCache{
			selfK:  take(block),
			selfV:  split(take(block), l.Self.Heads),
			crossK: take(block),
			crossV: split(take(block), l.Cross.Heads),
		}
	}
	return s
}

// takeDecState takes a state from the transformer's pool, allocating one
// when the pool is empty.
func (t *Transformer) takeDecState() *decState {
	if s, ok := t.decPool.Get().(*decState); ok {
		return s
	}
	return newDecState(t)
}

// NewIncrementalDecoder runs the encoder over input (a one-sample
// float32 EncodeBatch) and precomputes the per-layer cross-attention
// projections of the memory.
func (t *Transformer) NewIncrementalDecoder(input []int) *IncrementalDecoder {
	return t.NewIncrementalDecoderFromMemory(t.EncodeBatch([][]int{input}, false)[0], false)
}

// NewIncrementalDecoderFromMemory builds a decoder over an
// already-computed encoder memory (a flat rows×Dim slice of at most
// MaxSeq rows, e.g. one sample's slice of an EncodeBatch result; it is
// only read); the decoder is bit-identical to NewIncrementalDecoder.
//
// quantized is ignored: it stays only until a benchmark change drops
// perfbench's model.step_q_us probe, which still passes it.
func (t *Transformer) NewIncrementalDecoderFromMemory(mem []float32, quantized bool) *IncrementalDecoder {
	dim := t.Cfg.Dim
	memR := len(mem) / dim
	if memR > t.Cfg.MaxSeq {
		panic(fmt.Sprintf("model: encoder memory of %d rows exceeds MaxSeq %d", memR, t.Cfg.MaxSeq))
	}
	d := &IncrementalDecoder{t: t, memR: memR, st: t.takeDecState()}
	// Each cross projection is computed full-width into the staging
	// buffer (one batched kernel call over the memory rows), then K is
	// transposed and V repacked into the state's per-head blocks.
	proj := d.st.proj[:memR*dim]
	for li, l := range t.Dec {
		lc := &d.st.layers[li]
		linearRowsFwdInto(proj, mem, memR, l.Cross.WK)
		tensor.TransposeInto(lc.crossK, proj, memR, dim, dim)
		linearRowsFwdInto(proj, mem, memR, l.Cross.WV)
		dh := l.Cross.D / l.Cross.Heads
		for h, blk := range lc.crossV {
			for i := 0; i < memR; i++ {
				copy(blk[i*dh:(i+1)*dh], proj[i*dim+h*dh:])
			}
		}
	}
	return d
}

// Pos returns how many tokens have been fed so far (the position the
// next token will occupy).
func (d *IncrementalDecoder) Pos() int { return d.pos }

// state returns the decoder's state, panicking once it has been
// released: the state may already belong to another decoder.
func (d *IncrementalDecoder) state() *decState {
	if d.st == nil {
		panic("model: IncrementalDecoder used after Release")
	}
	return d.st
}

// Release returns the decoder's state to the transformer's pool. Call it
// once the decode is finished and the last Step's logits row is dead.
// Releasing again is a no-op; Step after Release panics, since the
// state may by then belong to another decoder. Pos stays readable.
func (d *IncrementalDecoder) Release() {
	if d.st != nil {
		d.t.decPool.Put(d.st)
		d.st = nil
	}
}

// Step feeds one token at the next position and returns the
// next-token logits row. The caller must keep Pos() < Cfg.MaxSeq, the
// same bound the reference path enforces on its growing prefix. The
// returned slice aliases a scratch buffer: it is valid until the next
// Step or Release on this decoder.
func (d *IncrementalDecoder) Step(token int) []float32 {
	t := d.t
	dim, maxSeq := t.Cfg.Dim, t.Cfg.MaxSeq
	pos := d.pos
	s := d.state()

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
		lc := &s.layers[li]

		// Self attention: project the new row, write its K as a new
		// column of the transposed key cache and its V as a new row of
		// each head's value block, attend over every cached position. The
		// newest row is never masked, so the causal softmax degenerates to
		// a plain one.
		tensor.LayerNormRows(h, x, 1, l.N1.Gain.Data, l.N1.Bias.Data, nil, nil)
		linearRowFwdInto(s.q, h, l.Self.WQ)
		linearRowFwdInto(s.k, h, l.Self.WK)
		linearRowFwdInto(s.v, h, l.Self.WV)
		for r, kv := range s.k {
			lc.selfK[r*maxSeq+pos] = kv
		}
		dh := l.Self.D / l.Self.Heads
		for hd, blk := range lc.selfV {
			copy(blk[pos*dh:], s.v[hd*dh:(hd+1)*dh])
		}
		attendRowInto(s.attn, s.scores, s.q, lc.selfK, maxSeq, lc.selfV, pos+1, l.Self)
		linearRowFwdInto(s.o, s.attn, l.Self.WO)
		tensor.Axpy(x, s.o, 1)

		// Cross attention over the cached memory projections.
		tensor.LayerNormRows(h, x, 1, l.N2.Gain.Data, l.N2.Bias.Data, nil, nil)
		linearRowFwdInto(s.q, h, l.Cross.WQ)
		attendRowInto(s.attn, s.scores, s.q, lc.crossK, d.memR, lc.crossV, d.memR, l.Cross)
		linearRowFwdInto(s.o, s.attn, l.Cross.WO)
		tensor.Axpy(x, s.o, 1)

		// Position-wise feed-forward.
		tensor.LayerNormRows(h, x, 1, l.N3.Gain.Data, l.N3.Bias.Data, nil, nil)
		f := s.f[:l.FF.In.W.C]
		linearRowFwdInto(f, h, l.FF.In)
		geluRow(f)
		linearRowFwdInto(s.o, f, l.FF.Out)
		tensor.Axpy(x, s.o, 1)
	}

	tensor.LayerNormRows(s.st, x, 1, t.NormD.Gain.Data, t.NormD.Bias.Data, nil, nil)

	// Tied output projection against the cached Dim×Vocab transpose:
	// logits[j] = Σ_p st[p]·Embed[j][p], accumulated in the same p-outer
	// order MatMul(states, Transpose(Embed)) uses but reading the
	// embedding row-contiguously.
	logits := s.logits
	for j := range logits {
		logits[j] = 0
	}
	mulRowsInto(logits, s.st, t.embedT(), dim, t.Cfg.Vocab, t.Cfg.Vocab, 0)
	d.pos++
	return logits
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
	tensor.Axpy(out, l.B.Data, 1)
}

// linearRowsFwdInto computes x·W + b for n rows of a flat row-major
// slice into caller-provided out (len n·W.C, overwritten) — the batched
// encoder reuses pooled buffers through it.
func linearRowsFwdInto(out, x []float32, n int, l *Linear) {
	for i := range out {
		out[i] = 0
	}
	matmul(out, x, l.W.Data, n, l.W.R, l.W.C)
	for i := 0; i < n; i++ {
		tensor.Axpy(out[i*l.W.C:(i+1)*l.W.C], l.B.Data, 1)
	}
}

// attendRowInto runs multi-head attention for a single query row over
// ctxLen cached positions into out: per head, scores → scale → softmax
// → weighted sum, written into the head's slice of the output (heads
// side by side). kT holds the keys transposed, Dim rows with row stride
// ld (head h's dh×ctxLen block starts at row h·dh); v holds one dense
// ctxLen×dh block per head. scores is caller-provided scratch of at
// least ctxLen elements. Each score is the ascending-p chain with the
// zero-skip on q that attentionForward's MatMulStrided computes, so this
// matches the tape.
func attendRowInto(out, scores, q, kT []float32, ld int, v [][]float32, ctxLen int, m *MHA) {
	dh := m.D / m.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	clear(out)
	scores = scores[:ctxLen]
	for h := 0; h < m.Heads; h++ {
		off := h * dh
		clear(scores)
		tensor.MulRowInto(scores, q[off:off+dh], kT, dh, ctxLen, ld, off*ld)
		tensor.SoftmaxBlock(scores, 1, ctxLen, scale, false)
		tensor.AttnWeightedSumInto(out[off:off+dh], scores, v[h], ctxLen, dh)
	}
}

// geluRow mirrors GELU's forward pass in place.
func geluRow(xs []float32) { tensor.GELURow(xs, xs, nil) }
