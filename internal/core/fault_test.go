package core

import (
	"context"
	"errors"
	"testing"

	"vega/internal/faultinject"
)

// faultPipeline builds a pipeline with an untrained model — enough for
// Stage 3 to run end to end without a training pass.
func faultPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewFromProvider(testCorpus(t), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	initModel(t, p)
	return p
}

func TestGeneratePanicIsolatedToOneFunction(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	p := faultPipeline(t)
	faultinject.Arm(faultinject.GeneratePanic, "getRelocType")
	b := p.GenerateBackend("RISCV")
	if len(b.Functions) != len(p.Groups) {
		t.Fatalf("backend incomplete: %d functions, want %d", len(b.Functions), len(p.Groups))
	}
	if b.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", b.Recovered)
	}
	if b.Partial {
		t.Error("a recovered panic must not mark the backend partial")
	}
	fn := b.Function("getRelocType")
	if fn == nil || !fn.Failed() {
		t.Fatalf("crashed function not flagged: %+v", fn)
	}
	if fn.Confidence() != 0 || fn.Generated() {
		t.Errorf("crashed function must score confidence 0: conf=%v generated=%v",
			fn.Confidence(), fn.Generated())
	}
	// Every other function generated normally.
	for _, f := range b.Functions {
		if f.Name != "getRelocType" && f.Failed() {
			t.Errorf("unexpected failure in %s: %s", f.Name, f.Err)
		}
	}
}

func TestGenerateCancelContext(t *testing.T) {
	p := faultPipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := p.GenerateBackendOptions(ctx, "RISCV", GenOptions{})
	if !b.Partial {
		t.Fatal("canceled generation not marked partial")
	}
	if len(b.Functions) != 0 {
		t.Errorf("dead context still generated %d functions", len(b.Functions))
	}
}

func TestGenerateCancelMidModuleFault(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	p := faultPipeline(t)
	// Abort when generation reaches the EMI module: everything from the
	// earlier modules must be salvaged.
	faultinject.Arm(faultinject.GenerateCancel, "EMI")
	b := p.GenerateBackend("RISCV")
	if !b.Partial {
		t.Fatal("mid-module cancel not marked partial")
	}
	if len(b.Functions) == 0 {
		t.Fatal("nothing salvaged from the modules before the cancel")
	}
	for _, f := range b.Functions {
		if f.Module == "EMI" || f.Module == "ASS" || f.Module == "DIS" {
			t.Errorf("function %s from module %s generated after the cancel point", f.Name, f.Module)
		}
	}
}

func TestTrainContextCancelReturnsPartialResult(t *testing.T) {
	cfg := tinyConfig()
	cfg.Train.Epochs = 10
	cfg.MaxSamples = 40
	p, err := NewFromProvider(testCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.Cfg.Train.Verbose = func(epoch int, loss float64) {
		if epoch == 0 {
			cancel()
		}
	}
	res, err := p.TrainContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Canceled {
		t.Fatalf("partial result missing or unflagged: %+v", res)
	}
	if len(res.EpochLosses) != 1 {
		t.Errorf("partial result kept %d epoch losses, want 1", len(res.EpochLosses))
	}
}

func TestTrainRecoversFromInjectedNaNEpoch(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	cfg := tinyConfig()
	cfg.Train.Epochs = 3
	cfg.MaxSamples = 120
	cfg.VerifyCap = 10
	p, err := NewFromProvider(testCorpus(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.TrainNaN, "1")
	res, err := p.Train()
	if err != nil {
		t.Fatalf("training did not recover from the NaN epoch: %v", err)
	}
	if res.RetriedEpochs < 1 {
		t.Fatalf("RetriedEpochs = %d, want >= 1", res.RetriedEpochs)
	}
	if len(res.EpochLosses) != 3 {
		t.Fatalf("epochs completed = %d, want 3", len(res.EpochLosses))
	}
	if last, first := res.EpochLosses[2], res.EpochLosses[0]; last >= first {
		t.Errorf("loss did not converge across recovery: %v", res.EpochLosses)
	}
}
