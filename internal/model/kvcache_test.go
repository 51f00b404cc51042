package model

import (
	"math"
	"math/rand"
	"testing"
)

// kvConfigs are the shapes the differential tests sweep: multiple
// layers, head counts, and FF widths so every cached code path (self/
// cross attention, clones, boundary clamps) is exercised.
func kvConfigs(vocab int) []Config {
	return []Config{
		{Vocab: vocab, Dim: 32, Heads: 2, EncLayers: 1, DecLayers: 1, FFMult: 2, MaxSeq: 32, Seed: 1},
		{Vocab: vocab, Dim: 48, Heads: 4, EncLayers: 2, DecLayers: 2, FFMult: 2, MaxSeq: 48, Seed: 7},
		{Vocab: vocab, Dim: 24, Heads: 3, EncLayers: 1, DecLayers: 3, FFMult: 4, MaxSeq: 24, Seed: 13},
	}
}

func kvInputs(vocab int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	lo := numSpecial + NumConfidenceBuckets
	var ins [][]int
	for n := 1; n <= 12; n += 4 {
		in := []int{CLS}
		for j := 0; j < n; j++ {
			in = append(in, lo+rng.Intn(vocab-lo))
		}
		ins = append(ins, append(in, SEP))
	}
	return ins
}

// kvInputsWithLong returns kvInputs plus one input longer than MaxSeq,
// which every encoder must clamp the same way.
func kvInputsWithLong(cfg Config, seed int64) [][]int {
	ins := kvInputs(cfg.Vocab, seed)
	long := []int{CLS}
	for len(long) < cfg.MaxSeq+5 {
		long = append(long, ins[len(ins)-1][1:]...)
	}
	return append(ins, long)
}

// TestForwardEncodeMatchesEncode pins the one-sample tape-free forward
// encode — EncodeBatch on a single input, the call every incremental
// decoder encodes through — to the tape's Encode bit-exactly.
func TestForwardEncodeMatchesEncode(t *testing.T) {
	const vocab = 40
	for _, cfg := range kvConfigs(vocab) {
		m := NewTransformer(cfg)
		for s, in := range kvInputsWithLong(cfg, cfg.Seed) {
			want := m.Encode(NewTape(), in).Data
			got := m.EncodeBatch([][]int{in}, false)[0]
			if len(got) != len(want) {
				t.Fatalf("cfg %+v sample %d: forward encode %d values, Encode %d", cfg, s, len(got), len(want))
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("cfg %+v sample %d: memory[%d] = %v, want %v (bit-exact)",
						cfg, s, i, got[i], want[i])
				}
			}
		}
	}
}

// FuzzEncodeBatchAgainstTape packs random ragged batches — 1-row
// samples, inputs longer than MaxSeq, any mix — through the float32
// EncodeBatch and checks every sample's memory against the tape's Encode
// of that sample alone, bit for bit: the batched encoder and the
// training tape run the same attention forward, so packing must not
// change a bit.
func FuzzEncodeBatchAgainstTape(f *testing.F) {
	const vocab = 40
	var models []*Transformer
	for _, cfg := range kvConfigs(vocab) {
		models = append(models, NewTransformer(cfg))
	}
	f.Add(int64(1), uint8(0), uint8(3))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(2), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, which, count uint8) {
		m := models[int(which)%len(models)]
		rng := rand.New(rand.NewSource(seed))
		lo := numSpecial + NumConfidenceBuckets
		inputs := make([][]int, int(count)%6+1)
		for s := range inputs {
			n := 1 + rng.Intn(m.Cfg.MaxSeq+8)
			if rng.Intn(3) == 0 {
				n = 1
			}
			in := []int{CLS}
			for len(in) < n {
				in = append(in, lo+rng.Intn(vocab-lo))
			}
			inputs[s] = in
		}
		mems := m.EncodeBatch(inputs, false)
		for s, in := range inputs {
			want := m.Encode(NewTape(), in).Data
			if len(mems[s]) != len(want) {
				t.Fatalf("sample %d: %d memory values, Encode %d", s, len(mems[s]), len(want))
			}
			for i := range want {
				if math.Float32bits(mems[s][i]) != math.Float32bits(want[i]) {
					t.Fatalf("sample %d of %d (%d tokens): memory[%d] = %v, want %v (bit-exact)",
						s, len(inputs), len(in), i, mems[s][i], want[i])
				}
			}
		}
	})
}

// TestEncodeBatchMatchesForwardEncode pins the batched encoder
// to the one-sample forward encode bit-exactly: every op in EncodeBatch
// is row-local except attention, which runs per sample, so packing must
// not change a single float.
func TestEncodeBatchMatchesForwardEncode(t *testing.T) {
	const vocab = 40
	for _, cfg := range kvConfigs(vocab) {
		m := NewTransformer(cfg)
		ins := kvInputsWithLong(cfg, cfg.Seed+3)
		mems := m.EncodeBatch(ins, false)
		if len(mems) != len(ins) {
			t.Fatalf("cfg %+v: %d memories for %d inputs", cfg, len(mems), len(ins))
		}
		for s, in := range ins {
			want := m.EncodeBatch([][]int{in}, false)[0]
			if len(mems[s]) != len(want) {
				t.Fatalf("cfg %+v sample %d: %d values, want %d", cfg, s, len(mems[s]), len(want))
			}
			for i := range want {
				if math.Float32bits(mems[s][i]) != math.Float32bits(want[i]) {
					t.Fatalf("cfg %+v sample %d: memory[%d] = %v, want %v (bit-exact)",
						cfg, s, i, mems[s][i], want[i])
				}
			}
		}
	}
}

// TestDecoderFromMemoryMatchesGenerate pins the decode-from-batched-
// memory path to the plain cached generator bit-exactly.
func TestDecoderFromMemoryMatchesGenerate(t *testing.T) {
	const vocab = 40
	for _, cfg := range kvConfigs(vocab) {
		m := NewTransformer(cfg)
		ins := kvInputs(vocab, cfg.Seed+4)
		mems := m.EncodeBatch(ins, false)
		for s, in := range ins {
			want := m.Generate(in, 20)
			d := m.NewIncrementalDecoderFromMemory(mems[s], false)
			got := m.Greedy(d, 20)
			if !equalInts(got, want) {
				t.Fatalf("cfg %+v input %v: from-memory %v, direct %v", cfg, in, got, want)
			}
		}
	}
}

func TestGenerateCachedMatchesUncached(t *testing.T) {
	const vocab = 40
	for _, cfg := range kvConfigs(vocab) {
		m := NewTransformer(cfg)
		for _, in := range kvInputs(vocab, cfg.Seed+1) {
			want := m.Greedy(m.NewReferenceDecoder(in), 20)
			got := m.Generate(in, 20)
			if !equalInts(got, want) {
				t.Fatalf("cfg %+v input %v: cached %v, uncached %v", cfg, in, got, want)
			}
		}
	}
}
