package model

import (
	"fmt"
	"sync"
	"testing"
)

// decodeLedger tracks every fakeDecoder of one decode run and which of
// them are released.
type decodeLedger struct {
	t      *testing.T
	maxSeq int
	eos    bool // whether the script ever prefers EOS
	all    []*fakeDecoder
}

// fakeDecoder is a scripted Decoder: each logits row is a fixed function
// of the prefix fed so far, and lifecycle misuse is reported through the
// ledger.
type fakeDecoder struct {
	l        *decodeLedger
	lane     int // keys the script, so side-by-side decodes differ
	prefix   []int
	released int
}

const fakeVocab = 12

func (l *decodeLedger) newDecoder(lane int) *fakeDecoder {
	d := &fakeDecoder{l: l, lane: lane}
	l.all = append(l.all, d)
	return d
}

// fakeLogits is the script: pseudo-random scores hashed from the lane
// and the prefix, with EOS either never preferred or winning on roughly
// a third of prefixes.
func fakeLogits(lane int, prefix []int, eos bool) []float32 {
	h := uint32(2166136261) + uint32(lane)*2654435769
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
	return fakeLogits(d.lane, d.prefix, d.l.eos)
}

func (d *fakeDecoder) Release() {
	d.released++
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
func scriptedGreedy(lane, maxLen, maxSeq int, eos bool) []int {
	var out []int
	prefix := []int{BOS}
	for len(out) < maxLen && len(prefix) < maxSeq {
		next := argmax(fakeLogits(lane, prefix, eos))
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
				out := m.Greedy(l.newDecoder(0), c.maxLen)
				l.checkReleased()
				if want := scriptedGreedy(0, c.maxLen, c.maxSeq, eos); !equalInts(out, want) {
					t.Errorf("Greedy = %v, want %v", out, want)
				}
				if len(out) > c.maxLen || (len(out) > 0 && 1+len(out) > c.maxSeq) {
					t.Errorf("Greedy emitted %d tokens past maxLen %d / MaxSeq %d", len(out), c.maxLen, c.maxSeq)
				}
			})
		}
	}
}

// TestBeamDecoderLifecycleAndBounds runs width greedy decodes side by
// side on one model, as parallel generation does, each over its own
// scripted decoder. Every decode must follow its own script, stay within
// maxLen and MaxSeq, and release its decoder exactly once. (The name is
// kept from the beam search it covered before repair stopped using one;
// width is now the number of decodes in flight.)
func TestBeamDecoderLifecycleAndBounds(t *testing.T) {
	for _, eos := range []bool{false, true} {
		for _, c := range decodeCases {
			for _, width := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("eos=%v/maxLen=%d/maxSeq=%d/width=%d", eos, c.maxLen, c.maxSeq, width), func(t *testing.T) {
					l := &decodeLedger{t: t, maxSeq: c.maxSeq, eos: eos}
					m := &Transformer{Cfg: Config{MaxSeq: c.maxSeq}}
					decs := make([]*fakeDecoder, width)
					for lane := range decs {
						decs[lane] = l.newDecoder(lane)
					}
					outs := make([][]int, width)
					var wg sync.WaitGroup
					for lane, d := range decs {
						wg.Add(1)
						go func() {
							defer wg.Done()
							outs[lane] = m.Greedy(d, c.maxLen)
						}()
					}
					wg.Wait()
					l.checkReleased()
					for lane, out := range outs {
						if want := scriptedGreedy(lane, c.maxLen, c.maxSeq, eos); !equalInts(out, want) {
							t.Errorf("lane %d: Greedy = %v, want %v", lane, out, want)
						}
						if len(out) > c.maxLen || (len(out) > 0 && 1+len(out) > c.maxSeq) {
							t.Errorf("lane %d: Greedy emitted %d tokens past maxLen %d / MaxSeq %d", lane, len(out), c.maxLen, c.maxSeq)
						}
					}
				})
			}
		}
	}
}
