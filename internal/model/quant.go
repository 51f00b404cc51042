package model

import (
	"sync"

	"vega/internal/tensor"
)

// Quantized inference view. quantView lazily builds an int8 copy of every
// inference-path weight matrix — each Linear's transpose quantized per
// output row (so the per-row scales line up with output columns and the
// tensor.QMatMulNT scale-once contract), plus the tied embedding, whose
// Vocab×Dim rows are already the NT operand the logits projection needs.
// The view is built once per weight snapshot (sync.Once, the embT
// pattern) and dropped at the same single-threaded training boundary
// that invalidates embT; it is never consulted by the tape, so training
// is always full-precision.
//
// Accuracy: quantized linears are approximations, so a quantized decode
// can disagree with the float32 one. Step tracks the top-2 logit margin;
// when any step's margin falls under QuantMargin the decoder is marked
// Ambiguous and the caller (internal/core) re-decodes that row with the
// float32 path, keeping exact-match accuracy by construction. The
// differential tests in quant_test.go pin the tolerance.

// QuantMargin is the top-2 logit margin (in logit units) under which a
// quantized argmax is considered at risk of differing from float32; the
// decoder reports Ambiguous and callers fall back to full precision.
const QuantMargin = 0.5

// qLin is a Linear ready for quantized inference: Wᵀ quantized per
// output row, bias kept float32.
type qLin struct {
	wt *tensor.QMat
	b  []float32
}

type qMHA struct {
	wq, wk, wv, wo qLin
}

type qEncoderLayer struct {
	attn        qMHA
	ffIn, ffOut qLin
}

type qDecoderLayer struct {
	self, cross qMHA
	ffIn, ffOut qLin
}

// qView is the full quantized weight set for inference.
type qView struct {
	embed *tensor.QMat // Vocab×Dim rows: the logits NT operand
	enc   []qEncoderLayer
	dec   []qDecoderLayer
}

func quantLin(l *Linear) qLin {
	in, out := l.W.R, l.W.C
	wt := make([]float32, out*in)
	for p := 0; p < in; p++ {
		row := l.W.Data[p*out : (p+1)*out]
		for j, v := range row {
			wt[j*in+p] = v
		}
	}
	return qLin{wt: tensor.QuantizeRows(wt, out, in), b: l.B.Data}
}

func quantMHA(m *MHA) qMHA {
	return qMHA{wq: quantLin(m.WQ), wk: quantLin(m.WK), wv: quantLin(m.WV), wo: quantLin(m.WO)}
}

// quantView returns the cached quantized weight view, building it on
// first use. Safe for concurrent use by generation workers.
func (t *Transformer) quantView() *qView {
	t.qv.once.Do(func() {
		v := &qView{embed: tensor.QuantizeRows(t.Embed.Data, t.Cfg.Vocab, t.Cfg.Dim)}
		for _, l := range t.Enc {
			v.enc = append(v.enc, qEncoderLayer{
				attn: quantMHA(l.Attn), ffIn: quantLin(l.FF.In), ffOut: quantLin(l.FF.Out),
			})
		}
		for _, l := range t.Dec {
			v.dec = append(v.dec, qDecoderLayer{
				self: quantMHA(l.Self), cross: quantMHA(l.Cross),
				ffIn: quantLin(l.FF.In), ffOut: quantLin(l.FF.Out),
			})
		}
		t.qv.view = v
	})
	return t.qv.view
}

// invalidateQuant drops the quantized weight view. Called from the same
// single-threaded training boundary as invalidateEmbT; must not race
// with inference.
func (t *Transformer) invalidateQuant() {
	t.qv.once = sync.Once{}
	t.qv.view = nil
}

// qLinearRowFwdInto computes x·W + b for one row through the int8
// kernels: the activation row is quantized on the fly (qbuf is caller
// scratch of at least len(x) elements), the weight side is pre-quantized.
func qLinearRowFwdInto(out, x []float32, qbuf []int8, ql *qLin) {
	qa := qbuf[:len(x)]
	var sa float32
	tensor.QuantizeRowInto(qa, x, &sa)
	qMulRowPre(out, qa, sa, ql)
}

// qMulRowPre is qLinearRowFwdInto after activation quantization — one
// already-quantized row against ql. Callers that feed several linears
// from the same activation row (the decoder's q/k/v projections)
// quantize once and call this per weight.
func qMulRowPre(out []float32, qa []int8, sa float32, ql *qLin) {
	for j := range out {
		out[j] = ql.b[j]
	}
	tensor.QMulRowInto(out, qa, sa, ql.wt)
}

// qaPool recycles the activation-side QMat scratch the batched quantized
// linears quantize into; pooling it keeps the per-layer activation
// quantization allocation-free in steady state.
var qaPool sync.Pool

// qLinearRowsFwdInto is qLinearRowFwdInto over n packed rows, through
// the batched QMatMulNT kernel, into caller-provided out (len n·outC,
// overwritten).
func qLinearRowsFwdInto(out, x []float32, n int, ql *qLin) {
	qa := getQa()
	tensor.QuantizeRowsInto(qa, x, n, ql.wt.C)
	qLinearRowsFwdPre(out, qa, ql)
	qaPool.Put(qa)
}

// getQa returns a pooled activation QMat scratch; return it with
// qaPool.Put when the quantized rows are dead.
func getQa() *tensor.QMat {
	qa, _ := qaPool.Get().(*tensor.QMat)
	if qa == nil {
		qa = &tensor.QMat{}
	}
	return qa
}

// qLinearRowsFwdPre is the batched linear after activation
// quantization: out (len qa.R·outC, overwritten) = qa·wtᵀ + b. Callers
// that feed several linears from the same activation rows (the encoder's
// q/k/v) quantize once and call this per weight.
func qLinearRowsFwdPre(out []float32, qa *tensor.QMat, ql *qLin) {
	c := ql.wt.R
	for i := range out {
		out[i] = 0
	}
	tensor.QMatMulNT(out, qa, ql.wt)
	for i := 0; i < qa.R; i++ {
		row := out[i*c : (i+1)*c]
		for j := range row {
			row[j] += ql.b[j]
		}
	}
}
