package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"vega/internal/generate"
)

// verifyFingerprint extends backendFingerprint with the verification
// outcome: repair must be just as deterministic as decoding.
func verifyFingerprint(b *generate.Backend) string {
	var sb strings.Builder
	sb.WriteString(backendFingerprint(b))
	for _, f := range b.Functions {
		if f.Verify == nil {
			fmt.Fprintf(&sb, "%s|unset\n", f.Name)
			continue
		}
		fmt.Fprintf(&sb, "%s|%s|%d|%v|%q\n", f.Name, f.Verify.Status,
			f.Verify.Rounds, f.Verify.RepairedRows, f.Verify.Counterexample)
	}
	return sb.String()
}

// TestGenerateVerifyStatuses checks the opt-in contract: with Verify on,
// every non-failed function carries a verification status and the backend
// counters add up; with Verify off, no function is touched.
func TestGenerateVerifyStatuses(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	b := p.GenerateBackendOptions(t.Context(), "RISCV", GenOptions{Verify: true})

	var passed, repaired, failed, noOracle int
	for _, f := range b.Functions {
		if f.Failed() {
			continue
		}
		if f.Verify == nil {
			t.Fatalf("%s: no verification with Verify on", f.Name)
		}
		switch f.Verify.Status {
		case generate.VerifyPassed:
			passed++
		case generate.VerifyRepaired:
			repaired++
			if len(f.Verify.RepairedRows) == 0 || f.Verify.Rounds < 1 {
				t.Errorf("%s: repaired without rows/rounds: %+v", f.Name, f.Verify)
			}
		case generate.VerifyFailed:
			failed++
			if f.Verify.Counterexample == "" {
				t.Errorf("%s: failed verification without counterexample", f.Name)
			}
		case generate.VerifyNoOracle:
			noOracle++
		default:
			t.Errorf("%s: unexpected status %v", f.Name, f.Verify.Status)
		}
	}
	if passed+repaired+failed == 0 {
		t.Error("no function was verified against the RISCV oracle")
	}
	if b.Verified != passed+repaired || b.Repaired != repaired || b.RepairFailed != failed {
		t.Errorf("counters verified=%d repaired=%d failed=%d, want %d/%d/%d",
			b.Verified, b.Repaired, b.RepairFailed, passed+repaired, repaired, failed)
	}

	// Verify off: zero residue.
	plain := p.GenerateBackend("RISCV")
	for _, f := range plain.Functions {
		if f.Verify != nil {
			t.Fatalf("%s: verification set without Verify", f.Name)
		}
	}
	if plain.Verified != 0 || plain.Repaired != 0 || plain.RepairFailed != 0 {
		t.Errorf("plain backend carries repair counters: %+v", plain)
	}
}

// TestVerifyWorkerCountInvariant: the verified (and possibly repaired)
// backend must stay byte-identical for any worker count — repair runs
// per-function with a per-call ban list and a fresh eval universe, so
// worker scheduling cannot leak into outcomes.
func TestVerifyWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	verify := GenOptions{Verify: true}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := p.GenerateBackendOptions(t.Context(), "RISCV", verify)
	runtime.GOMAXPROCS(8)
	many := p.GenerateBackendOptions(t.Context(), "RISCV", verify)

	if a, b := verifyFingerprint(one), verifyFingerprint(many); a != b {
		t.Error("verified backend differs between GOMAXPROCS 1 and 8")
	}
}

// TestVerifyOffMatchesBaseline: running with Verify off must produce the
// exact backend the pre-repair pipeline produced — the zero-overhead-off
// guarantee is also a zero-interference guarantee.
func TestVerifyOffMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	base := backendFingerprint(p.GenerateBackend("RISCV"))

	// A verified run in between must not leak state.
	_ = p.GenerateBackendOptions(t.Context(), "RISCV", GenOptions{Verify: true})

	again := backendFingerprint(p.GenerateBackend("RISCV"))
	if base != again {
		t.Error("baseline backend changed after a verified run")
	}
}

// TestSkipRepairVerifiesWithoutRounds: the degrade rung keeps statuses
// flowing but never burns a repair round, and never improves a function.
func TestSkipRepairVerifiesWithoutRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	b := p.GenerateBackendOptions(t.Context(), "RISCV",
		GenOptions{Verify: true, SkipRepair: true})
	for _, f := range b.Functions {
		if f.Failed() || f.Verify == nil {
			continue
		}
		if f.Verify.Status == generate.VerifyRepaired || f.Verify.Rounds != 0 {
			t.Errorf("%s: repair ran under SkipRepair: %+v", f.Name, f.Verify)
		}
	}
	if b.Repaired != 0 {
		t.Errorf("Repaired = %d under SkipRepair, want 0", b.Repaired)
	}
}

// TestRepairRecoversFunctions is the tentpole's acceptance check at unit
// scale: on the deterministic untrained pipeline, counterexample-guided
// repair must recover at least one function plain generation got wrong,
// and must never lose one (verified pass@1 >= plain pass@1 by revert).
func TestRepairRecoversFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend generation test")
	}
	p := faultPipeline(t)
	b := p.GenerateBackendOptions(t.Context(), "RISCV", GenOptions{Verify: true})
	if b.Repaired < 1 {
		t.Errorf("Repaired = %d, want >= 1 recovered function", b.Repaired)
	}
	if b.Verified < b.Repaired {
		t.Errorf("Verified %d < Repaired %d", b.Verified, b.Repaired)
	}
}
