package model

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Tests for the decoder's KV-cache layout: keys transposed (one Dim×cap
// matrix per layer, a dh×cap block per head, one column per fed
// position), values head-contiguous (one pos×dh block per head). They
// drive the cache through every growth doubling up to MaxSeq and clone
// it at each capacity boundary. `make check` runs them under -race.

// refStepLogits is the tape-path ground truth for one decode step: the
// full decoder stack over the whole prefix, last row's logits (what a
// ReferenceDecoder fed the same prefix returns).
func refStepLogits(m *Transformer, in, prefix []int) []float32 {
	tp := NewTape()
	mem := m.Encode(tp, in)
	tp2 := NewTape()
	states := m.decodeStates(tp2, prefix, mem)
	logits := m.Logits(tp2, tp2.SliceRows(states, states.R-1, states.R))
	return logits.Row(0)
}

func equalLogits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d logits, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: logits[%d] = %v, want %v (bit-exact)", label, i, got[i], want[i])
		}
	}
}

// decodeTokens builds a valid decoder-side token sequence of length n
// starting at BOS.
func decodeTokens(vocab, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	lo := numSpecial + NumConfidenceBuckets
	toks := []int{BOS}
	for len(toks) < n {
		toks = append(toks, lo+rng.Intn(vocab-lo))
	}
	return toks
}

// selfKStride is a decoder layer's transposed-key capacity in positions.
func selfKStride(t *testing.T, d *IncrementalDecoder, li int) int {
	t.Helper()
	dim := d.t.Cfg.Dim
	k := d.layers[li].selfK
	if len(k)%dim != 0 {
		t.Fatalf("layer %d: selfK len %d is not a multiple of Dim %d", li, len(k), dim)
	}
	return len(k) / dim
}

// checkCloneLayout checks that a fresh clone of parent holds every layer's
// fed key columns bit for bit in a Dim×(pos+1) block — one column of
// headroom — and that its value blocks do not share parent's storage.
func checkCloneLayout(t *testing.T, parent, clone *IncrementalDecoder) {
	t.Helper()
	dim, pos := parent.t.Cfg.Dim, parent.pos
	for li := range parent.layers {
		pc, cc := selfKStride(t, parent, li), selfKStride(t, clone, li)
		if pos > 0 && cc != pos+1 {
			t.Fatalf("pos %d layer %d: clone selfK stride %d, want %d", pos, li, cc, pos+1)
		}
		for r := 0; r < dim; r++ {
			for j := 0; j < pos; j++ {
				got, want := clone.layers[li].selfK[r*cc+j], parent.layers[li].selfK[r*pc+j]
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("pos %d layer %d: clone selfK[%d][%d] = %v, want %v", pos, li, r, j, got, want)
				}
			}
		}
		for h, blk := range clone.layers[li].selfV {
			if len(blk) > 0 && &blk[0] == &parent.layers[li].selfV[h][0] {
				t.Fatalf("pos %d layer %d head %d: clone shares the parent's value block", pos, li, h)
			}
		}
	}
}

// TestKVGrowAtMaxSeqBoundary drives the incremental decoder to exactly
// MaxSeq fed positions, checking the logits against the uncached tape
// path at the first steps, at every step that re-strides the transposed
// keys, and at the boundary, and the layout after every step: the key
// stride follows the 2, 6, 14, 30, … doubling, and at the boundary every
// value block holds exactly MaxSeq dh-wide rows.
func TestKVGrowAtMaxSeqBoundary(t *testing.T) {
	const vocab = 40
	for _, cfg := range kvConfigs(vocab) {
		m := NewTransformer(cfg)
		in := kvInputs(vocab, cfg.Seed+4)[1]
		toks := decodeTokens(vocab, cfg.MaxSeq, cfg.Seed+5)

		d := m.NewIncrementalDecoder(in)
		stride := 0
		for i, tok := range toks {
			got := d.Step(tok)
			grew := i == stride
			if grew {
				stride = 2 * (i + 1)
			}
			for li := range m.Dec {
				if c := selfKStride(t, d, li); c != stride {
					t.Fatalf("cfg %+v step %d layer %d: selfK stride %d, want %d", cfg, i, li, c, stride)
				}
			}
			if i < 3 || grew || i == cfg.MaxSeq-1 {
				equalLogits(t, "growth step", got, refStepLogits(m, in, toks[:i+1]))
			}
		}
		d.Release()
		if d.Pos() != cfg.MaxSeq {
			t.Fatalf("cfg %+v: fed %d positions, want %d", cfg, d.Pos(), cfg.MaxSeq)
		}
		for li, l := range m.Dec {
			dh := l.Self.D / l.Self.Heads
			lc := &d.layers[li]
			if len(lc.selfV) != l.Self.Heads {
				t.Fatalf("cfg %+v layer %d: %d value blocks, want %d", cfg, li, len(lc.selfV), l.Self.Heads)
			}
			for h := 0; h < l.Self.Heads; h++ {
				if len(lc.selfV[h]) != cfg.MaxSeq*dh {
					t.Fatalf("cfg %+v layer %d head %d: selfV len %d, want %d (MaxSeq·dh)",
						cfg, li, h, len(lc.selfV[h]), cfg.MaxSeq*dh)
				}
			}
		}
	}
}

// TestCloneKVHeadroomMidGrowth branches decoders at the key cache's
// capacity boundaries — full (pos 2, 6, 14: the clone's first Step lands
// in its one column of headroom, the parent's re-strides) and just
// re-strided (pos 3, 7, 15) — and clones the clone when its headroom is
// used up. Parent, clone and grandchild then step interleaved on
// divergent tokens, so shared storage would show in the content (and
// under -race), and every logits row must equal the tape reference fed
// the same prefix, bit for bit.
func TestCloneKVHeadroomMidGrowth(t *testing.T) {
	const vocab = 40
	cfg := Config{Vocab: vocab, Dim: 24, Heads: 3, EncLayers: 1, DecLayers: 2, FFMult: 2, MaxSeq: 24, Seed: 17}
	m := NewTransformer(cfg)
	in := kvInputs(vocab, cfg.Seed)[2]
	toks := decodeTokens(vocab, cfg.MaxSeq, cfg.Seed+1)
	lo := numSpecial + NumConfidenceBuckets
	alt := func(i int) int { return lo + (i*7)%(vocab-lo) } // divergent branch tokens

	for _, branchAt := range []int{2, 3, 6, 7, 14, 15} {
		parent := m.NewIncrementalDecoder(in)
		for _, tok := range toks[:branchAt] {
			parent.Step(tok)
		}
		clone := parent.Clone().(*IncrementalDecoder)
		checkCloneLayout(t, parent, clone)
		cloneToks := append(append([]int{}, toks[:branchAt]...), alt(branchAt))
		equalLogits(t, "clone first step", clone.Step(alt(branchAt)), refStepLogits(m, in, cloneToks))

		// The clone's headroom is used up: clone it again.
		grand := clone.Clone().(*IncrementalDecoder)
		checkCloneLayout(t, clone, grand)
		parentToks := toks[:branchAt]
		grandToks := append([]int{}, cloneToks...)
		for i := 0; i < 3; i++ {
			parentToks = toks[:branchAt+i+1]
			cloneToks = append(cloneToks, alt(branchAt+i+1))
			grandToks = append(grandToks, alt(99+i))
			pr := parent.Step(parentToks[len(parentToks)-1])
			equalLogits(t, "parent after clone", pr, refStepLogits(m, in, parentToks))
			cr := clone.Step(cloneToks[len(cloneToks)-1])
			equalLogits(t, "clone", cr, refStepLogits(m, in, cloneToks))
			gr := grand.Step(grandToks[len(grandToks)-1])
			equalLogits(t, "clone-of-clone", gr, refStepLogits(m, in, grandToks))
		}
		parent.Release()
		clone.Release()
		grand.Release()
	}
}

// TestCloneQuantizedSelfConsistent is the clone/growth check on the
// int8 path, where the reference is a fresh quantized decoder over the
// same memory (there is no uncached quantized path): clones at the same
// capacity boundaries, and a clone of each clone, must match it bit for
// bit.
func TestCloneQuantizedSelfConsistent(t *testing.T) {
	const vocab = 40
	cfg := Config{Vocab: vocab, Dim: 32, Heads: 4, EncLayers: 1, DecLayers: 2, FFMult: 2, MaxSeq: 16, Seed: 23}
	m := NewTransformer(cfg)
	in := kvInputs(vocab, cfg.Seed)[1]
	mem := m.EncodeBatch([][]int{in}, false)[0]
	toks := decodeTokens(vocab, 10, cfg.Seed+2)
	lo := numSpecial + NumConfidenceBuckets

	fresh := func(tokens []int) []float32 {
		d := m.NewIncrementalDecoderFromMemory(mem, true)
		defer d.Release()
		var row []float32
		for _, tok := range tokens {
			row = d.Step(tok)
		}
		return row
	}

	for _, branchAt := range []int{2, 3, 6, 7} {
		parent := m.NewIncrementalDecoderFromMemory(mem, true)
		for _, tok := range toks[:branchAt] {
			parent.Step(tok)
		}
		clone := parent.Clone().(*IncrementalDecoder)
		checkCloneLayout(t, parent, clone)
		cloneToks := append(append([]int{}, toks[:branchAt]...), lo+3)
		equalLogits(t, "quantized clone", clone.Step(lo+3), fresh(cloneToks))
		grand := clone.Clone().(*IncrementalDecoder)
		grandToks := append(append([]int{}, cloneToks...), lo+5)
		equalLogits(t, "quantized clone-of-clone", grand.Step(lo+5), fresh(grandToks))
		equalLogits(t, "quantized parent", parent.Step(toks[branchAt]), fresh(toks[:branchAt+1]))
		parent.Release()
		clone.Release()
		grand.Release()
	}
}

// TestDecodeKernelWorkerBitIdentity pins decode outputs across
// GOMAXPROCS 1/3/8 on both precision paths: the tensor layer's
// parallel dispatch must not change a single logit bit.
func TestDecodeKernelWorkerBitIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const vocab = 40
	cfg := kvConfigs(vocab)[1]
	m := NewTransformer(cfg)
	in := kvInputs(vocab, cfg.Seed+6)[2]
	toks := decodeTokens(vocab, 10, cfg.Seed+7)

	decode := func(quantized bool) [][]float32 {
		mem := m.EncodeBatch([][]int{in}, quantized)[0]
		d := m.NewIncrementalDecoderFromMemory(mem, quantized)
		defer d.Release()
		var rows [][]float32
		for _, tok := range toks {
			rows = append(rows, append([]float32(nil), d.Step(tok)...))
		}
		return rows
	}

	for _, quantized := range []bool{false, true} {
		runtime.GOMAXPROCS(1)
		want := decode(quantized)
		for _, w := range []int{3, 8} {
			runtime.GOMAXPROCS(w)
			got := decode(quantized)
			for i := range want {
				equalLogits(t, "worker bit-identity", got[i], want[i])
			}
		}
	}
}
