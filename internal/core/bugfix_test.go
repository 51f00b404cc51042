package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"vega/internal/corpus"
	"vega/internal/generate"
	"vega/internal/model"
	"vega/internal/obs"
)

// subCorpus streams the first n non-eval targets of the standard fleet,
// so split behaviour on small fleets is testable.
func subCorpus(t *testing.T, n int) *corpus.Stream {
	t.Helper()
	var specs []*corpus.TargetSpec
	for _, ts := range corpus.Targets() {
		if !ts.Eval && len(specs) < n {
			specs = append(specs, ts)
		}
	}
	if len(specs) != n {
		t.Fatalf("corpus has only %d training targets, need %d", len(specs), n)
	}
	return corpus.NewStream(specs)
}

// The backend-based split used to compute its cut with no floor:
// TrainFraction 0.1 on a small fleet truncated to cut 0 (nothing
// trains) and 1.0 gave cut == len (nothing verifies) — both produced a
// pipeline that failed much later, deep in Stage 2. Now every fleet of
// ≥ 2 splits with both sides populated, and a one-backend fleet is a
// typed error at New.
func TestBackendSplitDegenerateFleets(t *testing.T) {
	cfg := tinyConfig()
	cfg.SplitByBackend = true
	if _, err := NewFromProvider(subCorpus(t, 1), cfg); !errors.Is(err, ErrDegenerateSplit) {
		t.Errorf("fleet of 1: err = %v, want ErrDegenerateSplit", err)
	}

	for n := 2; n <= 4; n++ {
		for _, frac := range []float64{0.1, 0.75, 1.0} {
			cfg := tinyConfig()
			cfg.SplitByBackend = true
			cfg.TrainFraction = frac
			p, err := NewFromProvider(subCorpus(t, n), cfg)
			if err != nil {
				t.Errorf("fleet %d, fraction %.2f: %v", n, frac, err)
				continue
			}
			if len(p.TrainFns) == 0 || len(p.VerifyFns) == 0 {
				t.Errorf("fleet %d, fraction %.2f: %d train / %d verify functions",
					n, frac, len(p.TrainFns), len(p.VerifyFns))
			}
		}
	}
}

// VerifyCap 0 used to be rewritten to 400 inside TrainContext, making
// "verify on the whole 25% split" inexpressible. It now follows the
// MaxSamples convention: 0 or negative bounds nothing, and the applied
// cap is visible on the verify.cap_applied gauge.
func TestVerifyCapConvention(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	base := tinyConfig()
	base.Train.Epochs = 1
	base.MaxSamples = 12
	base.MaxOutPieces = 4 // keeps the uncapped exact-match pass cheap

	// The uncapped verify count, computed without training: if it does
	// not exceed the old hardwired 400 the regression would be invisible.
	ref, err := NewFromProvider(testCorpus(t), base)
	if err != nil {
		t.Fatal(err)
	}
	ref.Vocab = model.BuildVocabExtra(ref.trainingSequences(), 2, ref.forceCharNames(), markerTokens)
	uncapped := len(ref.dedupAndCap(ref.samplesForSplit(ref.VerifyFns), 0, base.Seed+2))
	if uncapped <= 400 {
		t.Fatalf("test premise broken: uncapped verify split has %d samples, need > 400", uncapped)
	}

	for _, tc := range []struct {
		name  string
		cap   int
		want  int
		gauge float64
	}{
		{"zero is unlimited", 0, uncapped, 0},
		{"negative is unlimited", -3, uncapped, 0},
		{"explicit cap holds", 10, 10, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := &obs.MemSink{}
			cfg := base
			cfg.VerifyCap = tc.cap
			cfg.Obs = obs.New(mem)
			p, err := NewFromProvider(testCorpus(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Train()
			if err != nil {
				t.Fatal(err)
			}
			if res.VerifySamples != tc.want {
				t.Errorf("VerifyCap %d: verified %d samples, want %d",
					tc.cap, res.VerifySamples, tc.want)
			}
			cfg.Obs.Flush()
			if g, ok := mem.Metric("verify.cap_applied"); !ok || g.Value != tc.gauge {
				t.Errorf("verify.cap_applied = %v (found=%v), want %v", g.Value, ok, tc.gauge)
			}
		})
	}
}

// The pre-training curriculum cap used to truncate silently. The drop
// is now counted on pretrain.samples_dropped (and logged once).
func TestPretrainCapNotSilent(t *testing.T) {
	mem := &obs.MemSink{}
	cfg := tinyConfig()
	cfg.Obs = obs.New(mem)
	p, err := NewFromProvider(testCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Vocab = model.BuildVocabExtra(p.trainingSequences(), 2, p.forceCharNames(), markerTokens)

	pre := p.pretrainSamples()
	if len(pre) != pretrainCap {
		t.Fatalf("pretrain samples = %d, want the cap %d (full corpus must overflow it)",
			len(pre), pretrainCap)
	}
	cfg.Obs.Flush()
	m, ok := mem.Metric("pretrain.samples_dropped")
	if !ok || m.Value <= 0 {
		t.Fatalf("pretrain.samples_dropped = %v (found=%v), want > 0", m.Value, ok)
	}
	dropped := m.Value

	// A second build drops the same count again; the counter accumulates.
	p.pretrainSamples()
	cfg.Obs.Flush()
	if m, _ := mem.Metric("pretrain.samples_dropped"); m.Value != 2*dropped {
		t.Errorf("counter after second build = %v, want %v", m.Value, 2*dropped)
	}
}

// The acceptance bar for the observability layer: one tiny end-to-end
// run (all three stages, pre-training on) must emit at least 20
// distinct metric and span names into the sink.
func TestObservabilityCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	mem := &obs.MemSink{}
	cfg := tinyConfig()
	cfg.Train.Epochs = 1
	cfg.MaxSamples = 12
	cfg.MaxOutPieces = 4
	cfg.VerifyCap = 10
	cfg.Pretrain = true
	cfg.PretrainEpochs = 1
	cfg.Obs = obs.New(mem)
	p, err := NewFromProvider(subCorpus(t, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(); err != nil {
		t.Fatal(err)
	}
	p.GenerateBackend("RISCV")
	cfg.Obs.Flush()

	names := map[string]bool{}
	for _, m := range mem.Metrics() {
		names["metric:"+m.Name] = true
	}
	for _, s := range mem.Spans() {
		names["span:"+s.Name] = true
	}
	if len(names) < 20 {
		t.Errorf("only %d distinct metric/span names emitted: %v", len(names), names)
	}
}

// TestSeedReachesWeightsAndShuffle: Cfg.Seed is the run's one seed. Two
// pipelines that differ only in it must initialise different weights
// and shuffle training differently, so DefaultConfig must not pin
// Model.Seed or Train.Seed, which would take precedence over it.
func TestSeedReachesWeightsAndShuffle(t *testing.T) {
	p, err := NewFromProvider(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	weights := func(seed int64) []float32 {
		p.Cfg.Seed = seed
		if err := p.InitUntrained(); err != nil {
			t.Fatal(err)
		}
		return p.Model.Params()[0].Data
	}
	if slices.Equal(weights(1), weights(2)) {
		t.Error("Cfg.Seed 1 and 2 initialised identical weights")
	}
	if got := p.trainOptions().Seed; got != 2 {
		t.Errorf("training shuffle seed = %d, want Cfg.Seed 2", got)
	}
}

// Evaluating a backend for a target the provider has no reference for
// used to drop the provider's error and dereference the missing
// reference; it must return that error instead.
func TestEvaluateUnknownTarget(t *testing.T) {
	p := &Pipeline{Provider: subCorpus(t, 2)}
	gen := &generate.Backend{Target: "NoSuchTarget",
		Functions: []*generate.Function{{Name: "getRelocType", Target: "NoSuchTarget"}}}
	be, err := p.Evaluate(gen)
	if err == nil || be != nil {
		t.Fatalf("Evaluate = %v, %v; want an error", be, err)
	}
	if !strings.Contains(err.Error(), `no backend "NoSuchTarget"`) {
		t.Errorf("error %q does not carry the provider's", err)
	}
}
