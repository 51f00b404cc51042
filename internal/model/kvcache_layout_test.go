package model

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Tests for the decoder's pooled KV-cache state: keys transposed (one
// Dim×MaxSeq matrix per layer, a dh×MaxSeq block per head, one column
// per fed position), values head-contiguous (one MaxSeq×dh block per
// head), recycled through the Transformer's pool. They decode up to
// MaxSeq, clone and release decoders while others reuse the released
// states, and pin the steady-state allocations. `make check` runs them
// under -race.

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

// checkCloneLayout checks that a fresh clone of parent owns a state of
// its own and holds every layer's fed key columns and value rows, and
// the memory's cross blocks, bit for bit.
func checkCloneLayout(t *testing.T, parent, clone *IncrementalDecoder) {
	t.Helper()
	if clone.st == parent.st {
		t.Fatalf("pos %d: clone shares the parent's state", parent.pos)
	}
	dim, maxSeq, pos, memR := parent.t.Cfg.Dim, parent.t.Cfg.MaxSeq, parent.pos, parent.memR
	same := func(what string, li int, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("pos %d layer %d: clone %s[%d] = %v, want %v", pos, li, what, i, got[i], want[i])
			}
		}
	}
	for li := range parent.st.layers {
		pl, cl := &parent.st.layers[li], &clone.st.layers[li]
		for r := 0; r < dim; r++ {
			same("selfK", li, cl.selfK[r*maxSeq:r*maxSeq+pos], pl.selfK[r*maxSeq:r*maxSeq+pos])
		}
		same("crossK", li, cl.crossK[:dim*memR], pl.crossK[:dim*memR])
		for h := range pl.selfV {
			dh := len(pl.selfV[h]) / maxSeq
			same("selfV", li, cl.selfV[h][:pos*dh], pl.selfV[h][:pos*dh])
			same("crossV", li, cl.crossV[h][:memR*dh], pl.crossV[h][:memR*dh])
		}
	}
}

// TestKVDecodeToMaxSeq drives the incremental decoder to exactly MaxSeq
// fed positions, checking every step's logits against the uncached
// tape path bit for bit, and checks that no step moves the cache: the
// state and its first key block stay where construction put them.
func TestKVDecodeToMaxSeq(t *testing.T) {
	const vocab = 40
	for _, cfg := range kvConfigs(vocab) {
		m := NewTransformer(cfg)
		in := kvInputs(vocab, cfg.Seed+4)[1]
		toks := decodeTokens(vocab, cfg.MaxSeq, cfg.Seed+5)

		d := m.NewIncrementalDecoder(in)
		st, k0 := d.st, &d.st.layers[0].selfK[0]
		for i, tok := range toks {
			equalLogits(t, "decode step", d.Step(tok), refStepLogits(m, in, toks[:i+1]))
			if d.st != st || &d.st.layers[0].selfK[0] != k0 {
				t.Fatalf("cfg %+v step %d: the decoder's cache moved", cfg, i)
			}
		}
		if d.Pos() != cfg.MaxSeq {
			t.Fatalf("cfg %+v: fed %d positions, want %d", cfg, d.Pos(), cfg.MaxSeq)
		}
		d.Release()
	}
}

// freshPool empties m's decoder-state pool, so the next state put there
// is the one the next decoder built over m takes (the race detector
// drops pooled items at random, so there it may not be).
func freshPool(m *Transformer) { m.decPool = sync.Pool{} }

// TestClonePoolReuseHazard branches a decoder, branches the branch, and
// releases the parent; a new decoder over a different memory then takes
// the parent's state from the pool and steps on other tokens, writing
// over everything the parent had cached. The clone and the
// clone-of-clone, stepped interleaved with it on divergent tokens, must
// still equal the tape reference fed the same prefix bit for bit, so a
// clone that shared any storage with its parent would show in the
// content (and under -race).
func TestClonePoolReuseHazard(t *testing.T) {
	const vocab = 40
	cfg := Config{Vocab: vocab, Dim: 24, Heads: 3, EncLayers: 1, DecLayers: 2, FFMult: 2, MaxSeq: 24, Seed: 17}
	m := NewTransformer(cfg)
	ins := kvInputs(vocab, cfg.Seed)
	in, otherIn := ins[2], ins[0]
	toks := decodeTokens(vocab, cfg.MaxSeq, cfg.Seed+1)
	otherToks := decodeTokens(vocab, cfg.MaxSeq, cfg.Seed+2)
	lo := numSpecial + NumConfidenceBuckets
	alt := func(i int) int { return lo + (i*7)%(vocab-lo) } // divergent branch tokens

	reused := 0
	for _, branchAt := range []int{1, 2, 7, 15} {
		freshPool(m)
		parent := m.NewIncrementalDecoder(in)
		for _, tok := range toks[:branchAt] {
			parent.Step(tok)
		}
		clone := parent.Clone().(*IncrementalDecoder)
		checkCloneLayout(t, parent, clone)
		grand := clone.Clone().(*IncrementalDecoder)
		checkCloneLayout(t, clone, grand)
		pst := parent.st
		parent.Release()
		other := m.NewIncrementalDecoder(otherIn)
		if other.st == pst {
			reused++
		}

		cloneToks := append([]int{}, toks[:branchAt]...)
		grandToks := append([]int{}, toks[:branchAt]...)
		for i := 0; i < 4; i++ {
			oToks := otherToks[:2*i+2]
			other.Step(oToks[len(oToks)-2])
			equalLogits(t, "decoder on the reused state", other.Step(oToks[len(oToks)-1]),
				refStepLogits(m, otherIn, oToks))
			cloneToks = append(cloneToks, alt(branchAt+i))
			equalLogits(t, "clone", clone.Step(cloneToks[len(cloneToks)-1]), refStepLogits(m, in, cloneToks))
			grandToks = append(grandToks, alt(99+i))
			equalLogits(t, "clone-of-clone", grand.Step(grandToks[len(grandToks)-1]), refStepLogits(m, in, grandToks))
		}
		other.Release()
		clone.Release()
		grand.Release()
	}
	if reused == 0 && !raceEnabled {
		t.Fatal("no new decoder took the released parent's state: the hazard went untested")
	}
}

// TestCloneQuantizedSelfConsistent is the pool-reuse hazard on the int8
// path, where the reference is a fresh quantized decoder over the same
// memory (there is no uncached quantized path): clones and a clone of
// each clone, stepped after their parent's state went to a decoder over
// another memory, must match it bit for bit.
func TestCloneQuantizedSelfConsistent(t *testing.T) {
	const vocab = 40
	cfg := Config{Vocab: vocab, Dim: 32, Heads: 4, EncLayers: 1, DecLayers: 2, FFMult: 2, MaxSeq: 16, Seed: 23}
	m := NewTransformer(cfg)
	ins := kvInputs(vocab, cfg.Seed)
	mems := m.EncodeBatch([][]int{ins[1], ins[2]}, false)
	mem, otherMem := mems[0], mems[1]
	toks := decodeTokens(vocab, 10, cfg.Seed+2)
	lo := numSpecial + NumConfidenceBuckets

	fresh := func(tokens []int) []float32 {
		d := m.NewIncrementalDecoderFromMemory(mem, true)
		defer d.Release()
		var row []float32
		for _, tok := range tokens {
			row = d.Step(tok)
		}
		return append([]float32(nil), row...)
	}

	for _, branchAt := range []int{1, 2, 3, 7} {
		freshPool(m)
		parent := m.NewIncrementalDecoderFromMemory(mem, true)
		for _, tok := range toks[:branchAt] {
			parent.Step(tok)
		}
		clone := parent.Clone().(*IncrementalDecoder)
		checkCloneLayout(t, parent, clone)
		grand := clone.Clone().(*IncrementalDecoder)
		parentNext := append([]float32(nil), parent.Step(toks[branchAt])...)
		parent.Release()
		other := m.NewIncrementalDecoderFromMemory(otherMem, true)
		for _, tok := range toks[:branchAt+2] {
			other.Step(lo + (tok+5)%(vocab-lo))
		}

		cloneToks := append(append([]int{}, toks[:branchAt]...), lo+3)
		equalLogits(t, "quantized clone", clone.Step(lo+3), fresh(cloneToks))
		grandToks := append(append([]int{}, toks[:branchAt]...), lo+5)
		equalLogits(t, "quantized clone-of-clone", grand.Step(lo+5), fresh(grandToks))
		equalLogits(t, "quantized parent", parentNext, fresh(toks[:branchAt+1]))
		other.Release()
		clone.Release()
		grand.Release()
	}
}

// TestReleaseContract pins Release's contract: a second Release is a
// no-op that cannot pool one state twice, Step and Clone after Release
// panic instead of writing into a state another decoder may own, and
// Ambiguous stays readable (decodeRow in internal/core reads it after
// Greedy has released the decoder).
func TestReleaseContract(t *testing.T) {
	const vocab = 40
	cfg := kvConfigs(vocab)[1]
	m := NewTransformer(cfg)
	mem := m.EncodeBatch([][]int{kvInputs(vocab, cfg.Seed)[1]}, true)[0]

	freshPool(m)
	d := m.NewIncrementalDecoderFromMemory(mem, true)
	st := d.st
	for _, tok := range decodeTokens(vocab, 6, cfg.Seed) {
		d.Step(tok)
	}
	amb := d.Ambiguous()
	d.Release()
	d.Release()
	if d.st != nil {
		t.Fatal("Release left the decoder holding its state")
	}
	if d.Ambiguous() != amb || d.Pos() != 6 {
		t.Fatalf("after Release: Ambiguous %v, Pos %d; want %v, 6", d.Ambiguous(), d.Pos(), amb)
	}
	a, _ := m.decPool.Get().(*decState)
	b, _ := m.decPool.Get().(*decState)
	if a == st && b == st {
		t.Fatal("a double Release pooled the same state twice")
	}

	for name, use := range map[string]func(){
		"Step":  func() { d.Step(BOS) },
		"Clone": func() { d.Clone() },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "after Release") {
					t.Errorf("%s after Release: recovered %q, want a panic naming Release", name, msg)
				}
			}()
			use()
		}()
	}
}

// FuzzPooledDecodersAgainstReference runs a seeded sequence of create,
// step, clone and release operations over float32 decoders on memories
// of 1…MaxSeq rows (and one longer input, clamped), so live decoders keep
// taking states that released ones have written. Each decoder is paired
// with a ReferenceDecoder over the same input that is stepped and cloned
// alongside it, and every logits row must equal the reference's bit for
// bit.
func FuzzPooledDecodersAgainstReference(f *testing.F) {
	const vocab = 40
	var models []*Transformer
	for _, cfg := range kvConfigs(vocab) {
		models = append(models, NewTransformer(cfg))
	}
	f.Add(int64(1), uint8(0), uint8(40))
	f.Add(int64(2), uint8(1), uint8(60))
	f.Add(int64(3), uint8(2), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, which, ops uint8) {
		m := models[int(which)%len(models)]
		maxSeq := m.Cfg.MaxSeq
		rng := rand.New(rand.NewSource(seed))
		lo := numSpecial + NumConfidenceBuckets
		type pair struct {
			d   *IncrementalDecoder
			ref Decoder
		}
		var live []pair
		create := func() {
			in := []int{CLS}
			for n := 1 + rng.Intn(maxSeq+2); len(in) < n; {
				in = append(in, lo+rng.Intn(vocab-lo))
			}
			mem := m.EncodeBatch([][]int{in}, false)[0]
			live = append(live, pair{m.NewIncrementalDecoderFromMemory(mem, false), m.NewReferenceDecoder(in)})
		}
		for op := 0; op < int(ops)%120+1; op++ {
			if len(live) == 0 {
				create()
				continue
			}
			i := rng.Intn(len(live))
			p := live[i]
			switch r := rng.Intn(10); {
			case r == 0 && len(live) < 6:
				create()
			case r == 1 && len(live) < 6:
				live = append(live, pair{p.d.Clone().(*IncrementalDecoder), p.ref.Clone()})
			case r == 2:
				p.d.Release()
				live = append(live[:i], live[i+1:]...)
			default:
				if p.d.Pos() == maxSeq {
					continue
				}
				tok := BOS
				if p.d.Pos() > 0 {
					tok = lo + rng.Intn(vocab-lo)
				}
				equalLogits(t, "pooled decoder", p.d.Step(tok), p.ref.Step(tok))
			}
		}
		for _, p := range live {
			p.d.Release()
		}
	})
}

// TestPooledDecodersConcurrent shares one Transformer's pooled decoder
// states and encoder scratch sets among goroutines, each encoding a
// batch and decoding it greedily and with width-3 beams (which clone and
// release decoders), and requires the serial results from every one of
// them. `make check` runs it under -race.
func TestPooledDecodersConcurrent(t *testing.T) {
	const vocab = 40
	cfg := kvConfigs(vocab)[1]
	m := NewTransformer(cfg)
	inputs := kvInputsWithLong(cfg, cfg.Seed+9)
	decodeAll := func() [][]int {
		var out [][]int
		for _, mem := range m.EncodeBatch(inputs, false) {
			out = append(out, m.Greedy(m.NewIncrementalDecoderFromMemory(mem, false), 12))
			for _, b := range m.Beam(m.NewIncrementalDecoderFromMemory(mem, false), 6, 3) {
				out = append(out, b.IDs)
			}
		}
		return out
	}
	want := decodeAll()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got := decodeAll()
				if len(got) != len(want) {
					t.Errorf("%d decodes concurrently, %d serially", len(got), len(want))
					return
				}
				for i := range want {
					if !equalInts(got[i], want[i]) {
						t.Errorf("decode %d: %v concurrently, %v serially", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// allocsPerRun is testing.AllocsPerRun reporting bytes as well: the
// mean heap objects and bytes f allocates per call after one warm-up
// call, at GOMAXPROCS 1 (so the tensor kernels take their serial path).
func allocsPerRun(runs int, f func()) (objects, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDecodeAllocsSteadyState pins the pooled decoder's allocation
// profile: once a state is pooled, building a float32 decoder over a
// pre-encoded memory and decoding it greedily allocates a few small
// objects, against the tens of kilobytes one state holds. (The int8
// path's tensor.QMulRowInto draws its accumulator from a size-blind pool
// and allocates per call, so it is not pinned here.)
func TestDecodeAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	const vocab = 40
	cfg := kvConfigs(vocab)[1]
	m := NewTransformer(cfg)
	mem := m.EncodeBatch([][]int{kvInputs(vocab, cfg.Seed)[2]}, false)[0]
	objects, bytes := allocsPerRun(50, func() { m.Greedy(m.NewIncrementalDecoderFromMemory(mem, false), 16) })
	// The decoder, tensor.MatMul's closure for each cross K/V projection,
	// and at most five appends to Greedy's 16-token output.
	if want := uint64(1 + 2*cfg.DecLayers + 5); objects > want || bytes > 2048 {
		t.Errorf("%d objects, %d bytes per decode; want at most %d objects, 2048 bytes", objects, bytes, want)
	}
}

// TestEncodeBatchAllocsSteadyState: once a scratch set has seen the
// batch shape, EncodeBatch allocates only the memories it returns (one
// backing array and the per-sample slice headers), beside a closure per
// batched linear in tensor.MatMul.
func TestEncodeBatchAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	const vocab = 40
	cfg := kvConfigs(vocab)[1]
	m := NewTransformer(cfg)
	inputs := kvInputsWithLong(cfg, cfg.Seed)
	mems := m.EncodeBatch(inputs, false)
	returned := uint64(24 * len(mems))
	for _, mem := range mems {
		returned += uint64(4 * len(mem))
	}
	objects, bytes := allocsPerRun(50, func() { m.EncodeBatch(inputs, false) })
	if want := uint64(2 + 6*cfg.EncLayers); objects > want || bytes > returned+2048 {
		t.Errorf("%d objects, %d bytes per EncodeBatch; want at most %d objects, %d bytes",
			objects, bytes, want, returned+2048)
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
