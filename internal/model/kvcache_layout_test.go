package model

import (
	"math/rand"
	"runtime"
	"testing"
)

// Tests for the head-contiguous KV-cache layout: grow-on-demand at the
// MaxSeq boundary, cloneKV headroom under beam-style branching mid-
// growth, and kernel-worker bit-identity. `make check` runs them under
// -race.

// refStepLogits is the tape-path ground truth for one decode step: the
// full decoder stack over the whole prefix, last row's logits.
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
		if got[i] != want[i] {
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

// TestKVGrowAtMaxSeqBoundary drives the incremental decoder to exactly
// MaxSeq fed positions — through every growKV doubling — checking each
// step's logits against the uncached tape path and, at the boundary,
// that every layer's per-head blocks hold exactly MaxSeq dh-wide rows.
func TestKVGrowAtMaxSeqBoundary(t *testing.T) {
	const vocab = 40
	for _, cfg := range kvConfigs(vocab) {
		m := NewTransformer(cfg)
		in := kvInputs(vocab, cfg.Seed+4)[1]
		toks := decodeTokens(vocab, cfg.MaxSeq, cfg.Seed+5)

		d := m.NewIncrementalDecoder(in)
		for i, tok := range toks {
			got := d.Step(tok)
			// The tape reference is O(L²); spot-check early, mid-growth,
			// and the final boundary step.
			if i < 3 || i == cfg.MaxSeq/2 || i == cfg.MaxSeq-1 {
				want := refStepLogits(m, in, toks[:i+1])
				equalLogits(t, "boundary step", got, want)
			}
		}
		d.Release()
		if d.Pos() != cfg.MaxSeq {
			t.Fatalf("cfg %+v: fed %d positions, want %d", cfg, d.Pos(), cfg.MaxSeq)
		}
		for li, l := range m.Dec {
			dh := l.Self.D / l.Self.Heads
			lc := &d.layers[li]
			if len(lc.selfK) != l.Self.Heads || len(lc.selfV) != l.Self.Heads {
				t.Fatalf("cfg %+v layer %d: %d/%d head blocks, want %d",
					cfg, li, len(lc.selfK), len(lc.selfV), l.Self.Heads)
			}
			for h := 0; h < l.Self.Heads; h++ {
				if len(lc.selfK[h]) != cfg.MaxSeq*dh {
					t.Fatalf("cfg %+v layer %d head %d: selfK len %d, want %d (MaxSeq·dh)",
						cfg, li, h, len(lc.selfK[h]), cfg.MaxSeq*dh)
				}
				if len(lc.selfV[h]) != cfg.MaxSeq*dh {
					t.Fatalf("cfg %+v layer %d head %d: selfV len %d, want %d (MaxSeq·dh)",
						cfg, li, h, len(lc.selfV[h]), cfg.MaxSeq*dh)
				}
			}
		}
	}
}

// TestCloneKVHeadroomMidGrowth branches decoders exactly at the growKV
// capacity boundaries (a head block's first backing array holds two
// rows, the next six, then fourteen): the clone's one-row headroom and
// the parent's subsequent doubling must not alias, and every divergent
// branch must match a fresh decoder fed the same tokens bit for bit —
// including a clone of a clone.
func TestCloneKVHeadroomMidGrowth(t *testing.T) {
	const vocab = 40
	cfg := Config{Vocab: vocab, Dim: 24, Heads: 3, EncLayers: 1, DecLayers: 2, FFMult: 2, MaxSeq: 24, Seed: 17}
	m := NewTransformer(cfg)
	in := kvInputs(vocab, cfg.Seed)[2]
	toks := decodeTokens(vocab, cfg.MaxSeq, cfg.Seed+1)
	lo := numSpecial + NumConfidenceBuckets
	alt := func(i int) int { return lo + (i*7)%(vocab-lo) } // divergent branch tokens

	fresh := func(tokens []int) []float32 {
		d := m.NewIncrementalDecoder(in)
		defer d.Release()
		var row []float32
		for _, tok := range tokens {
			row = d.Step(tok)
		}
		return row
	}

	// Branch points: pos 2 (first backing array exactly full — the
	// clone's first Step lands in its headroom, the parent's triggers a
	// doubling), pos 3 (parent just grew), pos 7 (second doubling).
	for _, branchAt := range []int{2, 3, 7} {
		parent := m.NewIncrementalDecoder(in)
		for _, tok := range toks[:branchAt] {
			parent.Step(tok)
		}
		clone := parent.Clone()

		// Diverge: the clone takes alternative tokens, the parent
		// continues on the original sequence; interleave the steps so a
		// shared backing array would be caught by content (and by -race
		// when run under -race).
		var cloneRow, parentRow []float32
		cloneToks := append(append([]int{}, toks[:branchAt]...), 0, 0, 0)
		for i := 0; i < 3; i++ {
			cloneToks[branchAt+i] = alt(branchAt + i)
			cloneRow = clone.Step(cloneToks[branchAt+i])
			parentRow = parent.Step(toks[branchAt+i])
		}
		equalLogits(t, "clone branch", cloneRow, fresh(cloneToks))
		equalLogits(t, "parent after clone", parentRow, fresh(toks[:branchAt+3]))

		// Clone-of-clone: branch again off the already-branched decoder.
		grand := clone.Clone()
		grandToks := append(append([]int{}, cloneToks...), alt(99))
		gr := grand.Step(alt(99))
		equalLogits(t, "clone-of-clone", gr, fresh(grandToks))
		// The middle clone must be undisturbed by its child's Step.
		cloneToks = append(cloneToks, toks[branchAt+3])
		cr := clone.Step(toks[branchAt+3])
		equalLogits(t, "clone after grandchild", cr, fresh(cloneToks))

		parent.Release()
		clone.Release()
		grand.Release()
	}
}

// TestCloneQuantizedSelfConsistent is the clone/growth check on the
// int8 path, where the reference is a fresh quantized decoder over the
// same memory (there is no uncached quantized path).
func TestCloneQuantizedSelfConsistent(t *testing.T) {
	const vocab = 40
	cfg := Config{Vocab: vocab, Dim: 32, Heads: 4, EncLayers: 1, DecLayers: 2, FFMult: 2, MaxSeq: 16, Seed: 23}
	m := NewTransformer(cfg)
	in := kvInputs(vocab, cfg.Seed)[1]
	mem := m.EncodeBatch([][]int{in}, false)[0]
	toks := decodeTokens(vocab, 8, cfg.Seed+2)

	fresh := func(tokens []int) []float32 {
		d := m.NewIncrementalDecoderFromMemory(mem, true)
		defer d.Release()
		var row []float32
		for _, tok := range tokens {
			row = d.Step(tok)
		}
		return row
	}

	parent := m.NewIncrementalDecoderFromMemory(mem, true)
	for _, tok := range toks[:2] {
		parent.Step(tok)
	}
	clone := parent.Clone()
	lo := numSpecial + NumConfidenceBuckets
	cloneRow := clone.Step(lo + 3)
	parentRow := parent.Step(toks[2])
	equalLogits(t, "quantized clone", cloneRow, fresh(append(append([]int{}, toks[:2]...), lo+3)))
	equalLogits(t, "quantized parent", parentRow, fresh(toks[:3]))
	parent.Release()
	clone.Release()
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
