package model

import (
	"math"
	"runtime"
	"testing"
)

// TestEncodeBatchMatchesForwardEncode pins the float32 batched encoder
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
// memory path (float32) to the plain cached generator bit-exactly.
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
			if d.Ambiguous() {
				t.Fatalf("cfg %+v input %v: float32 decoder reported Ambiguous", cfg, in)
			}
		}
	}
}

// quantLogitTol is the stated tolerance for the int8 inference path:
// after a full quantized encode + one quantized decoder step, every
// logit must be within this distance of its float32 counterpart. The
// per-linear error is bounded by half a quantization step per operand
// (see tensor.QMatMulNT's differential test); stacking norm layers
// between linears re-centers activations, and empirically the
// end-to-end logit drift on unit-scale weights stays well under this.
const quantLogitTol = 0.25

// TestQuantizedStepLogitsTolerance runs the same fresh decoder step on
// the quantized and float32 paths (both over their own encodes) and
// bounds the logit divergence.
func TestQuantizedStepLogitsTolerance(t *testing.T) {
	const vocab = 40
	for _, cfg := range kvConfigs(vocab) {
		m := NewTransformer(cfg)
		for _, in := range kvInputs(vocab, cfg.Seed+5) {
			fd := m.NewIncrementalDecoder(in)
			fRow := append([]float32(nil), fd.Step(BOS)...)
			qmem := m.EncodeBatch([][]int{in}, true)[0]
			qd := m.NewIncrementalDecoderFromMemory(qmem, true)
			qRow := qd.Step(BOS)
			for j := range fRow {
				if d := math.Abs(float64(qRow[j] - fRow[j])); d > quantLogitTol {
					t.Fatalf("cfg %+v input %v: logit[%d] quantized %v vs float32 %v (|Δ|=%g > %g)",
						cfg, in, j, qRow[j], fRow[j], d, quantLogitTol)
				}
			}
		}
	}
}

// TestQuantizedDecodeAgreesOrAmbiguous is the accuracy-preservation
// contract: whenever a quantized greedy decode emits a different
// sequence than float32, the decoder must have flagged itself Ambiguous
// so the caller re-decodes at full precision.
func TestQuantizedDecodeAgreesOrAmbiguous(t *testing.T) {
	const vocab = 40
	for _, cfg := range kvConfigs(vocab) {
		m := NewTransformer(cfg)
		for _, in := range kvInputs(vocab, cfg.Seed+6) {
			want := m.Generate(in, 20)
			qmem := m.EncodeBatch([][]int{in}, true)[0]
			qd := m.NewIncrementalDecoderFromMemory(qmem, true)
			got := m.Greedy(qd, 20)
			if !equalInts(got, want) && !qd.Ambiguous() {
				t.Fatalf("cfg %+v input %v: quantized %v != float32 %v but not Ambiguous",
					cfg, in, got, want)
			}
		}
	}
}

// TestEncodeBatchQuantizedWorkerBitIdentity crosses the kernel layer's
// parallel-dispatch gate with a wide batch and requires the quantized
// batched encode to serialize byte-identically for every worker count
// (the int32 accumulation makes this hold by construction; this guards
// the dispatch plumbing).
func TestEncodeBatchQuantizedWorkerBitIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const vocab = 60
	cfg := Config{Vocab: vocab, Dim: 48, Heads: 4, EncLayers: 2, DecLayers: 1,
		FFMult: 4, MaxSeq: 64, Seed: 3}
	m := NewTransformer(cfg)
	var ins [][]int
	for i := 0; i < 24; i++ {
		ins = append(ins, kvInputs(vocab, int64(i))...)
	}
	var ref [][]float32
	for _, w := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(w)
		mems := m.EncodeBatch(ins, true)
		if ref == nil {
			ref = mems
			continue
		}
		for s := range mems {
			for i := range mems[s] {
				if math.Float32bits(mems[s][i]) != math.Float32bits(ref[s][i]) {
					t.Fatalf("workers=%d sample %d: memory[%d] differs", w, s, i)
				}
			}
		}
	}
}

// TestInvalidateQuantRebuilds ensures the quantized view tracks weight
// snapshots: mutating a weight and invalidating must change the view,
// mirroring the embT lifecycle.
func TestInvalidateQuantRebuilds(t *testing.T) {
	cfg := kvConfigs(40)[0]
	m := NewTransformer(cfg)
	v1 := m.quantView()
	if m.quantView() != v1 {
		t.Fatalf("quantView not cached")
	}
	m.Embed.Data[0] += 100
	m.invalidateQuant()
	v2 := m.quantView()
	if v2 == v1 {
		t.Fatalf("invalidateQuant did not drop the cached view")
	}
	if v1.embed.Data[0] == v2.embed.Data[0] && v1.embed.Scale[0] == v2.embed.Scale[0] {
		t.Fatalf("rebuilt view did not pick up the weight change")
	}
}
