package model

import (
	"fmt"
	"testing"
)

// decodeLedger tracks every fakeDecoder of one decode run: how many
// exist, which are released, and the most that were alive at once.
type decodeLedger struct {
	t        *testing.T
	maxSeq   int
	eos      bool // whether the script ever prefers EOS
	all      []*fakeDecoder
	alive    int
	maxAlive int
}

// fakeDecoder is a scripted Decoder: each logits row is a fixed function
// of the prefix fed so far, so clones and fresh decoders over the same
// prefix agree, and lifecycle misuse is reported through the ledger.
type fakeDecoder struct {
	l        *decodeLedger
	prefix   []int
	released int
}

const fakeVocab = 12

func (l *decodeLedger) newDecoder(prefix []int) *fakeDecoder {
	d := &fakeDecoder{l: l, prefix: append([]int(nil), prefix...)}
	l.all = append(l.all, d)
	l.alive++
	l.maxAlive = max(l.maxAlive, l.alive)
	return d
}

// fakeLogits is the script: pseudo-random scores hashed from the prefix,
// with EOS either never preferred or winning on roughly a third of
// prefixes.
func fakeLogits(prefix []int, eos bool) []float32 {
	h := uint32(2166136261)
	for _, tok := range prefix {
		h = (h ^ uint32(tok)) * 16777619
	}
	row := make([]float32, fakeVocab)
	for j := range row {
		x := (h ^ uint32(j)*2654435761) * 16777619
		row[j] = float32(x%1000) / 100
	}
	row[EOS] = -100
	if eos && h%3 == 0 {
		row[EOS] = 20
	}
	return row
}

func (d *fakeDecoder) Step(token int) []float32 {
	if d.released > 0 {
		d.l.t.Errorf("Step(%d) on a released decoder (prefix %v)", token, d.prefix)
	}
	if len(d.prefix) >= d.l.maxSeq {
		d.l.t.Errorf("Step(%d) at position %d, past MaxSeq %d", token, len(d.prefix), d.l.maxSeq)
	}
	d.prefix = append(d.prefix, token)
	return fakeLogits(d.prefix, d.l.eos)
}

func (d *fakeDecoder) Clone() Decoder {
	if d.released > 0 {
		d.l.t.Errorf("Clone of a released decoder (prefix %v)", d.prefix)
	}
	return d.l.newDecoder(d.prefix)
}

func (d *fakeDecoder) Release() {
	d.released++
	d.l.alive--
}

// checkReleased requires every decoder of the run released exactly once.
func (l *decodeLedger) checkReleased() {
	l.t.Helper()
	for i, d := range l.all {
		if d.released != 1 {
			l.t.Errorf("decoder %d of %d (prefix %v) released %d times, want 1", i, len(l.all), d.prefix, d.released)
		}
	}
}

// scriptedGreedy follows the script's argmax directly: the output Greedy
// must reproduce.
func scriptedGreedy(maxLen, maxSeq int, eos bool) []int {
	var out []int
	prefix := []int{BOS}
	for len(out) < maxLen && len(prefix) < maxSeq {
		next := argmax(fakeLogits(prefix, eos))
		if next == EOS {
			break
		}
		out = append(out, next)
		prefix = append(prefix, next)
	}
	return out
}

// decodeCases crosses the EOS script with a maxLen bound tighter than
// MaxSeq, a MaxSeq bound tighter than maxLen, and the degenerate bounds
// where no token can be decoded.
var decodeCases = []struct{ maxLen, maxSeq int }{
	{5, 16}, {20, 6}, {0, 16}, {8, 1}, {1, 2},
}

func TestGreedyDecoderLifecycleAndBounds(t *testing.T) {
	for _, eos := range []bool{false, true} {
		for _, c := range decodeCases {
			t.Run(fmt.Sprintf("eos=%v/maxLen=%d/maxSeq=%d", eos, c.maxLen, c.maxSeq), func(t *testing.T) {
				l := &decodeLedger{t: t, maxSeq: c.maxSeq, eos: eos}
				m := &Transformer{Cfg: Config{MaxSeq: c.maxSeq}}
				out := m.Greedy(l.newDecoder(nil), c.maxLen)
				l.checkReleased()
				if want := scriptedGreedy(c.maxLen, c.maxSeq, eos); !equalInts(out, want) {
					t.Errorf("Greedy = %v, want %v", out, want)
				}
				if len(out) > c.maxLen || (len(out) > 0 && 1+len(out) > c.maxSeq) {
					t.Errorf("Greedy emitted %d tokens past maxLen %d / MaxSeq %d", len(out), c.maxLen, c.maxSeq)
				}
			})
		}
	}
}

func TestBeamDecoderLifecycleAndBounds(t *testing.T) {
	for _, eos := range []bool{false, true} {
		for _, c := range decodeCases {
			for _, width := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("eos=%v/maxLen=%d/maxSeq=%d/width=%d", eos, c.maxLen, c.maxSeq, width), func(t *testing.T) {
					l := &decodeLedger{t: t, maxSeq: c.maxSeq, eos: eos}
					m := &Transformer{Cfg: Config{MaxSeq: c.maxSeq}}
					beams := m.Beam(l.newDecoder(nil), c.maxLen, width)
					l.checkReleased()
					// Each step's old parents and new clones: never more.
					if l.maxAlive > 2*width {
						t.Errorf("%d decoders alive at once, want at most %d", l.maxAlive, 2*width)
					}
					if len(beams) == 0 || len(beams) > width {
						t.Fatalf("%d beams, want 1..%d", len(beams), width)
					}
					for i, b := range beams {
						if len(b.IDs) > c.maxLen || (len(b.IDs) > 0 && 1+len(b.IDs) > c.maxSeq) {
							t.Errorf("beam %d has %d tokens past maxLen %d / MaxSeq %d", i, len(b.IDs), c.maxLen, c.maxSeq)
						}
						for _, id := range b.IDs {
							if id == EOS {
								t.Errorf("beam %d keeps EOS in IDs %v", i, b.IDs)
							}
						}
						if i > 0 && b.Score() > beams[i-1].Score() {
							t.Errorf("beam %d scores %v above beam %d's %v", i, b.Score(), i-1, beams[i-1].Score())
						}
					}
					if width == 1 {
						if want := scriptedGreedy(c.maxLen, c.maxSeq, eos); !equalInts(beams[0].IDs, want) {
							t.Errorf("width-1 beam %v, want greedy %v", beams[0].IDs, want)
						}
					}
				})
			}
		}
	}
}
