package core

import (
	"context"
	"testing"
)

// TestQuantizedBackendMatchesFloat32 is the accuracy-preservation
// contract of the int8 path at the backend level: quantized generation
// must produce byte-identical output to float32, because every row whose
// quantized decode is ambiguous re-decodes at full precision. This is
// what keeps the Fig. 7 speedup from moving the Fig. 7 accuracy.
func TestQuantizedBackendMatchesFloat32(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	p := faultPipeline(t)
	ctx := context.Background()
	scope := GenOptions{Modules: []string{"EMI"}}

	ref := p.GenerateBackendOptions(ctx, "RISCV", scope)
	if len(ref.Functions) == 0 {
		t.Fatal("float32 reference backend is empty")
	}

	q := scope
	q.Quantize = true
	got := p.GenerateBackendOptions(ctx, "RISCV", q)
	if backendFingerprint(got) != backendFingerprint(ref) {
		t.Error("quantized backend differs from float32 reference")
	}

	// The config-level knob must route identically to the per-request one.
	p.Cfg.Quantize = true
	defer func() { p.Cfg.Quantize = false }()
	viaCfg := p.GenerateBackendOptions(ctx, "RISCV", scope)
	if backendFingerprint(viaCfg) != backendFingerprint(ref) {
		t.Error("Cfg.Quantize backend differs from float32 reference")
	}
}

// TestSecondsOnlyContributingModules is the regression test for the
// misleading Fig. 7 zero entries: a request scoped to a single function
// must report decode seconds only for that function's module, not a zero
// row for every module in the corpus.
func TestSecondsOnlyContributingModules(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	p := faultPipeline(t)
	b := p.GenerateBackendOptions(context.Background(), "RISCV",
		GenOptions{Functions: []string{"getRelocType"}})
	if len(b.Functions) != 1 {
		t.Fatalf("got %d functions, want exactly getRelocType", len(b.Functions))
	}
	mods := map[string]bool{}
	for _, f := range b.Functions {
		mods[f.Module] = true
	}
	for m := range b.Seconds {
		if !mods[m] {
			t.Errorf("Seconds has entry for module %q (%.6fs) which contributed no functions",
				m, b.Seconds[m])
		}
	}
	if len(b.Seconds) == 0 {
		t.Error("Seconds is empty; want an entry for the generated function's module")
	}
}

// TestMaxFunctionsExactBoundary covers the truncation boundary: a cap
// equal to the in-scope function count is not a truncation, one below it
// is.
func TestMaxFunctionsExactBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	p := faultPipeline(t)
	ctx := context.Background()
	full := p.GenerateBackendOptions(ctx, "RISCV", GenOptions{Modules: []string{"EMI"}})
	n := len(full.Functions)
	if n < 2 {
		t.Skip("EMI module too small to demonstrate the boundary")
	}

	exact := p.GenerateBackendOptions(ctx, "RISCV",
		GenOptions{Modules: []string{"EMI"}, MaxFunctions: n})
	if len(exact.Functions) != n {
		t.Errorf("MaxFunctions=%d generated %d functions, want all %d", n, len(exact.Functions), n)
	}
	if exact.Truncated {
		t.Error("MaxFunctions equal to the in-scope count must not set Truncated")
	}

	under := p.GenerateBackendOptions(ctx, "RISCV",
		GenOptions{Modules: []string{"EMI"}, MaxFunctions: n - 1})
	if len(under.Functions) != n-1 {
		t.Errorf("MaxFunctions=%d generated %d functions, want %d", n-1, len(under.Functions), n-1)
	}
	if !under.Truncated {
		t.Error("MaxFunctions below the in-scope count must set Truncated")
	}
}
