package core

import (
	"context"
	"testing"
)

// TestGenerateBackendOptionsScope exercises the request-scoping knobs the
// serving layer builds on: module filters, explicit function lists, and
// the MaxFunctions truncation marker.
func TestGenerateBackendOptionsScope(t *testing.T) {
	if testing.Short() {
		t.Skip("generation test")
	}
	p := faultPipeline(t)
	ctx := context.Background()

	t.Run("module filter", func(t *testing.T) {
		b := p.GenerateBackendOptions(ctx, "RISCV", GenOptions{Modules: []string{"EMI"}})
		if len(b.Functions) == 0 {
			t.Fatal("module-scoped generation produced no functions")
		}
		for _, f := range b.Functions {
			if f.Module != "EMI" {
				t.Errorf("function %s has module %s, want EMI only", f.Name, f.Module)
			}
		}
		if b.Truncated {
			t.Error("module scoping must not set Truncated")
		}
	})

	t.Run("function filter", func(t *testing.T) {
		b := p.GenerateBackendOptions(ctx, "RISCV", GenOptions{Functions: []string{"getRelocType"}})
		if len(b.Functions) != 1 || b.Functions[0].Name != "getRelocType" {
			t.Fatalf("function-scoped generation: got %d functions, want exactly getRelocType", len(b.Functions))
		}
	})

	t.Run("max functions truncates and marks", func(t *testing.T) {
		full := p.GenerateBackendOptions(ctx, "RISCV", GenOptions{Modules: []string{"EMI"}})
		if len(full.Functions) < 2 {
			t.Skip("EMI module too small to demonstrate truncation")
		}
		cap := len(full.Functions) - 1
		b := p.GenerateBackendOptions(ctx, "RISCV", GenOptions{Modules: []string{"EMI"}, MaxFunctions: cap})
		if len(b.Functions) != cap {
			t.Errorf("got %d functions, want %d", len(b.Functions), cap)
		}
		if !b.Truncated {
			t.Error("truncated backend must be marked Truncated")
		}
		// Truncation keeps the task-list prefix, so the shared functions
		// are byte-identical to the untruncated run.
		for i, f := range b.Functions {
			if got, want := functionFingerprint(f), functionFingerprint(full.Functions[i]); got != want {
				t.Errorf("function %d differs between truncated and full runs", i)
			}
		}
	})
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
