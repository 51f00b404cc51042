package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vega/internal/faultinject"
	"vega/internal/model"
)

// initModel fills in an untrained vocab and model so Save/Load round-trip
// tests do not need a full training run.
func initModel(t *testing.T, p *Pipeline) {
	t.Helper()
	p.Vocab = model.BuildVocabExtra(p.trainingSequences(), 2, p.forceCharNames(), markerTokens)
	p.Model = model.NewTransformer(p.modelConfig())
}

// savedCheckpoint builds a pipeline with an untrained model and saves it.
func savedCheckpoint(t *testing.T) (*Pipeline, string) {
	t.Helper()
	p, err := NewFromProvider(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	initModel(t, p)
	path := filepath.Join(t.TempDir(), "ckpt.vega")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	return p, path
}

func TestCheckpointRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := tinyConfig()
	cfg.Train.Epochs = 1
	cfg.MaxSamples = 60
	cfg.VerifyCap = 10
	p, err := NewFromProvider(testCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.gob")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}

	q, err := NewFromProvider(testCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Load(path); err != nil {
		t.Fatal(err)
	}
	// The restored pipeline must generate identical output.
	g1 := p.GroupByName("getRelocType")
	g2 := q.GroupByName("getRelocType")
	f1 := p.GenerateFunction(g1, "RISCV")
	f2 := q.GenerateFunction(g2, "RISCV")
	if len(f1.Statements) != len(f2.Statements) {
		t.Fatalf("statement counts differ: %d vs %d", len(f1.Statements), len(f2.Statements))
	}
	for i := range f1.Statements {
		a, b := f1.Statements[i], f2.Statements[i]
		if a.Text != b.Text || a.Score != b.Score || a.Absent != b.Absent {
			t.Fatalf("statement %d differs after reload:\n%+v\n%+v", i, a, b)
		}
	}
	if !reflect.DeepEqual(p.Vocab.Pieces(), q.Vocab.Pieces()) {
		t.Fatal("vocabulary differs after reload")
	}
}

func TestCheckpointUntrainedRoundTrip(t *testing.T) {
	p, path := savedCheckpoint(t)
	q, err := NewFromProvider(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Load(path); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Vocab.Pieces(), q.Vocab.Pieces()) {
		t.Fatal("vocabulary differs after reload")
	}
	a, b := p.Model.Params(), q.Model.Params()
	for i := range a {
		if !reflect.DeepEqual(a[i].Data, b[i].Data) {
			t.Fatalf("parameter %d differs after reload", i)
		}
	}
}

func TestCheckpointTruncated(t *testing.T) {
	_, path := savedCheckpoint(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{ckptHeaderLen / 2, ckptHeaderLen + 5, len(raw) - 10} {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		p, _ := NewFromProvider(testCorpus(t), tinyConfig())
		if err := p.Load(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("truncated to %d bytes: err = %v, want ErrCheckpointCorrupt", n, err)
		}
	}
}

func TestCheckpointFlippedByte(t *testing.T) {
	_, path := savedCheckpoint(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[ckptHeaderLen+len(raw[ckptHeaderLen:])/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p, _ := NewFromProvider(testCorpus(t), tinyConfig())
	err = p.Load(path)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
	}
	if p.Model != nil || p.Vocab != nil {
		t.Fatal("failed Load mutated the pipeline")
	}
}

func TestCheckpointBadMagicAndVersion(t *testing.T) {
	_, path := savedCheckpoint(t)
	p, _ := NewFromProvider(testCorpus(t), tinyConfig())

	junk := filepath.Join(t.TempDir(), "junk.vega")
	if err := os.WriteFile(junk, []byte("definitely not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.Load(junk); !errors.Is(err, ErrCheckpointFormat) {
		t.Errorf("junk file: err = %v, want ErrCheckpointFormat", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[11] = 99 // future format version
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.Load(path); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("future version: err = %v, want ErrCheckpointVersion", err)
	}
}

func TestCheckpointWrongArch(t *testing.T) {
	_, path := savedCheckpoint(t)
	ck, err := readCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"gru", "nope"} {
		tampered := *ck
		tampered.Arch = arch
		tpath := filepath.Join(t.TempDir(), "arch.vega")
		if err := writeCheckpointFile(tpath, &tampered, nil); err != nil {
			t.Fatal(err)
		}
		p, _ := NewFromProvider(testCorpus(t), tinyConfig())
		if err := p.Load(tpath); !errors.Is(err, ErrCheckpointArch) {
			t.Errorf("arch %q: err = %v, want ErrCheckpointArch", arch, err)
		}
	}
}

// TestCheckpointRejectsBadModelConfig reseals checkpoints whose model
// config cannot describe their parameters — a correct checksum, so only
// the config check stands between them and a divide by zero, dropped
// columns or a runaway allocation in the constructor.
func TestCheckpointRejectsBadModelConfig(t *testing.T) {
	_, path := savedCheckpoint(t)
	ck, err := readCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*model.Config){
		"zero heads":              func(c *model.Config) { c.Heads = 0 },
		"heads not dividing Dim":  func(c *model.Config) { c.Heads = 3 },
		"negative Dim":            func(c *model.Config) { c.Dim = -c.Dim },
		"Dim not matching embeds": func(c *model.Config) { c.Dim /= 2 },
		"negative MaxSeq":         func(c *model.Config) { c.MaxSeq = -1 },
		"huge MaxSeq":             func(c *model.Config) { c.MaxSeq = 1 << 40 },
		"zero FFMult":             func(c *model.Config) { c.FFMult = 0 },
		"zero DecLayers":          func(c *model.Config) { c.DecLayers = 0 },
	} {
		tampered := *ck
		edit(&tampered.ModelCfg)
		tpath := filepath.Join(t.TempDir(), "cfg.vega")
		if err := writeCheckpointFile(tpath, &tampered, nil); err != nil {
			t.Fatal(err)
		}
		p, _ := NewFromProvider(testCorpus(t), tinyConfig())
		if err := p.Load(tpath); !errors.Is(err, ErrCheckpointArch) {
			t.Errorf("%s: err = %v, want ErrCheckpointArch", name, err)
		}
		if p.Model != nil {
			t.Errorf("%s: a rejected Load installed a model", name)
		}
	}
}

func TestCheckpointFaultInjectedBitFlip(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	p, err := NewFromProvider(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	initModel(t, p)
	path := filepath.Join(t.TempDir(), "ckpt.vega")
	faultinject.Arm(faultinject.CheckpointCorrupt, path)
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	if faultinject.Fired(faultinject.CheckpointCorrupt) != 1 {
		t.Fatal("corruption fault did not fire")
	}
	q, _ := NewFromProvider(testCorpus(t), tinyConfig())
	if err := q.Load(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
	}
}

func TestSaveIsAtomic(t *testing.T) {
	// A failed save (unwritable temp dir) must leave the previous
	// checkpoint readable, and no temp litter behind on success.
	p, path := savedCheckpoint(t)
	dir := filepath.Dir(path)
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter in checkpoint dir: %v", entries)
	}
	q, _ := NewFromProvider(testCorpus(t), tinyConfig())
	if err := q.Load(path); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	p, err := NewFromProvider(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load("/no/such/file"); err == nil {
		t.Error("expected error for missing checkpoint")
	}
	if err := p.Save(filepath.Join(t.TempDir(), "x.gob")); err == nil {
		t.Error("expected error saving an untrained pipeline")
	}
}
