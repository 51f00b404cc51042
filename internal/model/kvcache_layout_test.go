package model

import (
	"fmt"
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
// MaxSeq, release decoders while others reuse the released states, and
// pin the steady-state allocations. `make check` runs them under -race.

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

// TestPoolReuseHazard releases a decoder A that has fed some positions
// of one memory; a decoder B over a different memory then takes A's
// state from the pool and steps other tokens over everything A left in
// it (a recycled state is not cleared). Every logits row of B must equal
// the reference bit for bit, so a stale region B read before writing
// would show in the content. The float32 reference is the tape; the
// int8 path has no uncached form, so its reference is the same decode
// on a newly allocated state.
func TestPoolReuseHazard(t *testing.T) {
	const vocab = 40
	cfg := Config{Vocab: vocab, Dim: 24, Heads: 3, EncLayers: 1, DecLayers: 2, FFMult: 2, MaxSeq: 24, Seed: 17}
	m := NewTransformer(cfg)
	ins := kvInputs(vocab, cfg.Seed)
	in, otherIn := ins[2], ins[0]
	toks := decodeTokens(vocab, cfg.MaxSeq, cfg.Seed+1)
	otherToks := decodeTokens(vocab, 10, cfg.Seed+2)

	for _, quantized := range []bool{false, true} {
		t.Run(map[bool]string{false: "float32", true: "int8"}[quantized], func(t *testing.T) {
			mems := m.EncodeBatch([][]int{in, otherIn}, quantized)
			var want [][]float32
			if quantized {
				freshPool(m)
				d := m.NewIncrementalDecoderFromMemory(mems[1], true)
				for _, tok := range otherToks {
					want = append(want, append([]float32(nil), d.Step(tok)...))
				}
				d.Release()
			} else {
				for i := range otherToks {
					want = append(want, refStepLogits(m, otherIn, otherToks[:i+1]))
				}
			}

			reused := 0
			for _, fedA := range []int{1, 2, 7, cfg.MaxSeq} {
				freshPool(m)
				a := m.NewIncrementalDecoderFromMemory(mems[0], quantized)
				for _, tok := range toks[:fedA] {
					a.Step(tok)
				}
				ast := a.st
				a.Release()
				b := m.NewIncrementalDecoderFromMemory(mems[1], quantized)
				if b.st == ast {
					reused++
				}
				for i, tok := range otherToks {
					equalLogits(t, fmt.Sprintf("A fed %d, B step %d", fedA, i), b.Step(tok), want[i])
				}
				b.Release()
			}
			if reused == 0 && !raceEnabled {
				t.Fatal("no decoder took the released decoder's state: the hazard went untested")
			}
		})
	}
}

// TestReleaseContract pins Release's contract: a second Release is a
// no-op that cannot pool one state twice, Step after Release panics
// instead of writing into a state another decoder may own, and
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

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "after Release") {
			t.Errorf("Step after Release: recovered %q, want a panic naming Release", msg)
		}
	}()
	d.Step(BOS)
}

// FuzzPooledDecodersAgainstReference runs a seeded sequence of create,
// step and release operations over float32 decoders on memories of
// 1…MaxSeq rows (and one longer input, clamped), so live decoders keep
// taking states that released ones have written. Each decoder is paired
// with a ReferenceDecoder over the same input that is stepped alongside
// it, and every logits row must equal the reference's bit for bit.
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
// batch and decoding it greedily, and requires the serial results from
// every one of them. `make check` runs it under -race.
func TestPooledDecodersConcurrent(t *testing.T) {
	const vocab = 40
	cfg := kvConfigs(vocab)[1]
	m := NewTransformer(cfg)
	inputs := kvInputsWithLong(cfg, cfg.Seed+9)
	decodeAll := func() [][]int {
		var out [][]int
		for _, mem := range m.EncodeBatch(inputs, false) {
			out = append(out, m.Greedy(m.NewIncrementalDecoderFromMemory(mem, false), 12))
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
	// The decoder and at most five appends to Greedy's 16-token output.
	if want := uint64(1 + 5); objects > want || bytes > 2048 {
		t.Errorf("%d objects, %d bytes per decode; want at most %d objects, 2048 bytes", objects, bytes, want)
	}
}

// TestEncodeBatchAllocsSteadyState: once a scratch set has seen the
// batch shape, EncodeBatch allocates only the memories it returns (one
// backing array and the per-sample slice headers).
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
	if want := uint64(2); objects > want || bytes > returned+2048 {
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
