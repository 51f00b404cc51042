package model

import (
	"sort"

	"vega/internal/tensor"
)

// Decoder is one output sequence being decoded token by token against a
// fixed encoder memory. Greedy and Beam are written once against it, so
// the KV-cached IncrementalDecoder and the full-prefix ReferenceDecoder
// run exactly the same search and differ only in how each logits row is
// computed.
type Decoder interface {
	// Step feeds token at the next position and returns the next-token
	// logits row, valid until the decoder's next Step or Release.
	Step(token int) []float32
	// Clone branches the decoder: the copy has fed the same tokens and
	// then evolves independently.
	Clone() Decoder
	// Release returns any pooled resources once the decoder is finished.
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

// beamState is a live hypothesis during beam search: the Beam plus its
// decoder and the logits row its last Step produced.
type beamState struct {
	Beam
	d      Decoder
	logits []float32
}

// Beam decodes from d (fresh, nothing fed yet) with beam search of the
// given width, returning the hypotheses sorted best-first. Width 1
// degenerates to greedy decoding.
//
// Each live hypothesis owns a decoder, cloned when a hypothesis branches
// into several surviving children (the last child inherits the parent's
// decoder). Parents whose decoder no surviving child inherited are
// released as soon as the step's survivors are built, and the remaining
// live decoders before Beam returns, so every decoder created here is
// released exactly once.
//
// A hypothesis whose prefix [BOS]+IDs has reached Cfg.MaxSeq can emit no
// further tokens — the positional table ends there — and is carried
// forward unexpanded, the same bound Greedy enforces. The (rare) EOS it
// might have emitted exactly at the boundary is forfeited.
func (t *Transformer) Beam(d Decoder, maxLen, width int) []Beam {
	if width < 1 {
		width = 1
	}
	beams := []*beamState{{}}
	if t.Cfg.MaxSeq > 1 && maxLen > 0 {
		beams[0].d = d
		beams[0].logits = d.Step(BOS)
	} else {
		d.Release()
	}
	live := func(b Beam) bool { return !b.done && 1+len(b.IDs) < t.Cfg.MaxSeq }

	// candidate is a scored expansion (or pass-through) awaiting pruning;
	// surviving candidates are materialized into beamStates afterwards,
	// so losing branches never pay for a decoder step.
	type candidate struct {
		Beam
		parent *beamState // expansion: parent hypothesis
		pass   *beamState // pass-through: already-final hypothesis
		id     int        // expansion: the token appended
	}

	for step := 0; step < maxLen; step++ {
		var next []candidate
		expanded := false
		for _, b := range beams {
			if !live(b.Beam) {
				next = append(next, candidate{Beam: b.Beam, pass: b})
				continue
			}
			expanded = true
			row := b.logits
			// log p(id) = (row[id] − max) − log Σ exp(row − max), the
			// normaliser computed once per expanded row.
			maxv, logSum := tensor.SoftmaxNorm(row)
			for _, id := range TopK(row, width) {
				lp := float64(row[id]-maxv) - logSum
				c := candidate{
					Beam: Beam{
						IDs:     append(append([]int{}, b.IDs...), id),
						LogP:    b.LogP + lp,
						emitted: len(b.IDs) + 1,
					},
					parent: b,
					id:     id,
				}
				if id == EOS {
					c.IDs = c.IDs[:len(c.IDs)-1]
					c.done = true
				}
				next = append(next, c)
			}
		}
		if !expanded {
			break
		}
		sort.SliceStable(next, func(i, j int) bool { return next[i].Score() > next[j].Score() })
		if len(next) > width {
			next = next[:width]
		}

		// Materialize survivors. Count how many surviving children still
		// need each parent's decoder: all but the last clone it, and the
		// last takes it over.
		needs := make(map[*beamState]int, len(next))
		for _, c := range next {
			if c.parent != nil && live(c.Beam) {
				needs[c.parent]++
			}
		}
		newBeams := make([]*beamState, 0, len(next))
		for _, c := range next {
			if c.pass != nil {
				newBeams = append(newBeams, c.pass)
				continue
			}
			ns := &beamState{Beam: c.Beam}
			if live(c.Beam) {
				d := c.parent.d
				needs[c.parent]--
				if needs[c.parent] > 0 {
					d = d.Clone()
				} else {
					c.parent.d = nil // inherited
				}
				ns.d = d
				ns.logits = d.Step(c.id)
			}
			newBeams = append(newBeams, ns)
		}
		// Parents still holding a decoder had no surviving live child to
		// inherit it. Pass-through beams never hold one.
		for _, b := range beams {
			if b.d != nil {
				b.d.Release()
			}
		}
		beams = newBeams
	}

	out := make([]Beam, len(beams))
	for i, b := range beams {
		if b.d != nil {
			b.d.Release()
		}
		out[i] = b.Beam
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score() > out[j].Score() })
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

// Clone copies the prefix; the encoder memory is shared read-only.
func (r *ReferenceDecoder) Clone() Decoder {
	return &ReferenceDecoder{t: r.t, mem: r.mem, prefix: append([]int(nil), r.prefix...)}
}

// Release is a no-op: the reference decoder holds no pooled buffers.
func (r *ReferenceDecoder) Release() {}
