package model

// Decoder is one output sequence being decoded token by token against a
// fixed encoder memory. Greedy is written once against it, so the
// KV-cached IncrementalDecoder and the full-prefix ReferenceDecoder run
// exactly the same search and differ only in how each logits row is
// computed.
type Decoder interface {
	// Step feeds token at the next position and returns the next-token
	// logits row, valid until the decoder's next Step or Release.
	Step(token int) []float32
	// Release returns any pooled resources once the decoder is finished.
	// A second Release is a no-op; the decoder must not Step after it
	// (the cached decoder panics, since its pooled state may already
	// belong to another decoder).
	Release()
}

// Greedy decodes from d (fresh, nothing fed yet) by taking the argmax
// token at each step, up to maxLen output pieces, and releases d when it
// returns. Every prefix [BOS]+out stays within Cfg.MaxSeq.
func (t *Transformer) Greedy(d Decoder, maxLen int) []int {
	defer d.Release()
	var out []int
	last := BOS
	for len(out) < maxLen && len(out)+1 < t.Cfg.MaxSeq {
		next := argmax(d.Step(last))
		if next == EOS {
			break
		}
		out = append(out, next)
		last = next
	}
	return out
}

// ReferenceDecoder is the ground-truth Decoder the cached path is
// differentially tested against: every Step re-runs the full tape-
// recorded decoder stack over the whole prefix fed so far, against a
// tape-recorded encoder memory. It is O(L²) in the output length and
// never used for serving.
type ReferenceDecoder struct {
	t      *Transformer
	mem    *Tensor
	prefix []int
}

// NewReferenceDecoder encodes input on a tape and returns a fresh
// reference decoder over that memory.
func (t *Transformer) NewReferenceDecoder(input []int) *ReferenceDecoder {
	return &ReferenceDecoder{t: t, mem: t.Encode(NewTape(), input)}
}

// Step appends token to the prefix and returns the last row's logits.
func (r *ReferenceDecoder) Step(token int) []float32 {
	r.prefix = append(r.prefix, token)
	tp := NewTape()
	states := r.t.decodeStates(tp, r.prefix, r.mem)
	return r.t.Logits(tp, tp.SliceRows(states, states.R-1, states.R)).Row(0)
}

// Release is a no-op: the reference decoder holds no pooled buffers.
func (r *ReferenceDecoder) Release() {}
