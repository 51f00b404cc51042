package core

import (
	"strings"
	"testing"

	"vega/internal/corpus"
	"vega/internal/model"
)

var sharedCorpus *corpus.Stream

func testCorpus(t *testing.T) *corpus.Stream {
	t.Helper()
	if sharedCorpus == nil {
		sharedCorpus = corpus.NewStream(corpus.Targets())
	}
	return sharedCorpus
}

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxSamples = 300
	cfg.Pretrain = false
	cfg.Train.Epochs = 2
	cfg.Model.Dim = 32
	cfg.Model.EncLayers = 1
	cfg.Model.DecLayers = 1
	cfg.Model.MaxSeq = 128
	cfg.MaxOutPieces = 24
	return cfg
}

func TestPipelineStageOne(t *testing.T) {
	p, err := NewFromProvider(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Groups) < 40 {
		t.Fatalf("groups = %d", len(p.Groups))
	}
	st := p.Stats()
	if st.TrainFunctions == 0 || st.VerifyFunctions == 0 {
		t.Fatalf("split empty: %+v", st)
	}
	ratio := float64(st.TrainFunctions) / float64(st.TrainFunctions+st.VerifyFunctions)
	if ratio < 0.70 || ratio > 0.85 {
		t.Errorf("split ratio %.2f, want ~0.75", ratio)
	}
	if st.Properties < 15 {
		t.Errorf("properties = %d", st.Properties)
	}
	g := p.GroupByName("getRelocType")
	if g == nil || g.FT.Module != "EMI" {
		t.Fatalf("getRelocType group: %+v", g)
	}
	if len(g.Targets) != len(corpus.TrainingSpecs(p.Provider)) {
		t.Errorf("getRelocType targets = %d", len(g.Targets))
	}
	if p.FindTarget("RISCV") == nil {
		t.Error("FindTarget lost the eval targets")
	}
}

func TestSplitDeterminism(t *testing.T) {
	a, err := NewFromProvider(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFromProvider(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TrainFns) != len(b.TrainFns) {
		t.Fatal("split sizes differ")
	}
	for k := range a.TrainFns {
		if !b.TrainFns[k] {
			t.Fatalf("split differs at %s", k)
		}
	}
}

func TestBackendSplitAblation(t *testing.T) {
	cfg := tinyConfig()
	cfg.SplitByBackend = true
	p, err := NewFromProvider(testCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every function of a backend lands on the same side.
	sides := map[string]string{}
	for k := range p.TrainFns {
		tgt := k[strings.Index(k, "/")+1:]
		if s, ok := sides[tgt]; ok && s != "train" {
			t.Fatalf("%s split across sides", tgt)
		}
		sides[tgt] = "train"
	}
	for k := range p.VerifyFns {
		tgt := k[strings.Index(k, "/")+1:]
		if s, ok := sides[tgt]; ok && s != "verify" {
			t.Fatalf("%s split across sides", tgt)
		}
		sides[tgt] = "verify"
	}
}

func TestRowInputShape(t *testing.T) {
	p, err := NewFromProvider(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := p.GroupByName("getRelocType")
	tv := g.TF.Targets[g.Targets[0]]
	for ri := range g.FT.Rows {
		toks := p.rowInputTokens(g, ri, tv, p.rowCandidates(g, ri, tv, g.Targets[0]))
		if len(toks) < 4 {
			t.Fatalf("row %d: input too short: %v", ri, toks)
		}
		if toks[0] != "getRelocType" || toks[1] != markRow {
			t.Fatalf("row %d: bad prefix: %v", ri, toks[:3])
		}
		var seps int
		for _, tk := range toks {
			if tk == markSep {
				seps++
			}
		}
		if seps < 1 {
			t.Fatalf("row %d: no separator", ri)
		}
	}
}

func TestSampleRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	p, err := NewFromProvider(testCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Vocab = model.BuildVocabExtra(p.trainingSequences(), 2, p.forceCharNames(), markerTokens)
	g := p.GroupByName("getRelocType")
	tgt := g.Targets[0]
	tv := g.TF.Targets[tgt]
	for ri := range g.FT.Rows {
		if !g.FT.Rows[ri].HasTarget(tgt) {
			continue
		}
		s := p.buildSample(g, ri, tgt, tv)
		// Feeding the oracle output through decodeStatement must
		// reproduce the target's own statement text.
		st := p.decodeStatement(g, ri, tv, p.rowCandidates(g, ri, tv, tgt), s.sample.Output)
		if st.Absent {
			t.Fatalf("row %d: oracle output decodes as absent", ri)
		}
		want := joinTokens(g.FT.Rows[ri].PerTarget[tgt])
		if st.Text != want {
			t.Errorf("row %d: decode %q, want %q", ri, st.Text, want)
		}
	}
}

func TestSampleRoundTripAllGroups(t *testing.T) {
	cfg := tinyConfig()
	p, err := NewFromProvider(testCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Vocab = model.BuildVocabExtra(p.trainingSequences(), 2, p.forceCharNames(), markerTokens)
	mismatches := 0
	total := 0
	for _, g := range p.Groups {
		for _, tgt := range g.Targets {
			tv := g.TF.Targets[tgt]
			for ri := range g.FT.Rows {
				if !g.FT.Rows[ri].HasTarget(tgt) {
					continue
				}
				total++
				s := p.buildSample(g, ri, tgt, tv)
				st := p.decodeStatement(g, ri, tv, p.rowCandidates(g, ri, tv, tgt), s.sample.Output)
				want := joinTokens(g.FT.Rows[ri].PerTarget[tgt])
				if st.Text != want {
					mismatches++
					if mismatches <= 3 {
						t.Logf("%s/%s row %d: %q vs %q", g.Func.Name, tgt, ri, st.Text, want)
					}
				}
			}
		}
	}
	// The oracle reconstruction ceiling bounds achievable accuracy; it
	// must be essentially lossless.
	if float64(mismatches) > 0.01*float64(total) {
		t.Errorf("oracle reconstruction loses %d/%d statements", mismatches, total)
	}
}

func TestDedupAndCap(t *testing.T) {
	p, err := NewFromProvider(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Vocab = model.BuildVocabExtra(p.trainingSequences(), 2, p.forceCharNames(), markerTokens)
	all := p.samplesForSplit(p.TrainFns)
	capped := p.dedupAndCap(all, 100, 1)
	if len(capped) != 100 {
		t.Errorf("cap = %d", len(capped))
	}
	uncapped := p.dedupAndCap(all, 0, 1)
	if len(uncapped) >= len(all) {
		t.Errorf("dedup removed nothing: %d of %d", len(uncapped), len(all))
	}
}

func TestTrainTinyAndGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := tinyConfig()
	p, err := NewFromProvider(testCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Train()
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 || res.VocabSize == 0 {
		t.Fatalf("train result: %+v", res)
	}
	if len(res.EpochLosses) == 0 || res.EpochLosses[len(res.EpochLosses)-1] >= res.EpochLosses[0] {
		t.Errorf("loss not falling: %v", res.EpochLosses)
	}
	gb := p.GenerateBackend("RISCV")
	if len(gb.Functions) != len(p.Groups) {
		t.Errorf("generated %d functions, want %d", len(gb.Functions), len(p.Groups))
	}
	var modules int
	for _, sec := range gb.Seconds {
		if sec >= 0 {
			modules++
		}
	}
	if modules != 7 {
		t.Errorf("timed modules = %d", modules)
	}
}

func TestArchSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	for _, arch := range []string{"transformer", "gru", "bert"} {
		cfg := tinyConfig()
		cfg.Arch = arch
		cfg.Train.Epochs = 1
		cfg.MaxSamples = 12
		p, err := NewFromProvider(testCorpus(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Train(); err != nil {
			t.Errorf("arch %s: %v", arch, err)
		}
	}
	cfg := tinyConfig()
	cfg.Arch = "nope"
	p, _ := NewFromProvider(testCorpus(t), cfg)
	if _, err := p.Train(); err == nil {
		t.Error("unknown arch must error")
	}
	if err := p.InitUntrained(); err == nil {
		t.Error("InitUntrained: unknown arch must error")
	}
}
