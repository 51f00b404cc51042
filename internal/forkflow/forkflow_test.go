package forkflow

import (
	"strings"
	"testing"

	"vega/internal/corpus"
	"vega/internal/generate"
)

func buildCorpus(t *testing.T) *corpus.Stream {
	t.Helper()
	return corpus.NewStream(corpus.Targets())
}

// fork is Fork with a failure fatal to the test.
func fork(t *testing.T, pr corpus.Provider, donor, target string) *generate.Backend {
	t.Helper()
	ff, err := Fork(pr, donor, target)
	if err != nil {
		t.Fatal(err)
	}
	return ff
}

func TestForkCoversDonorFunctions(t *testing.T) {
	c := buildCorpus(t)
	ff := fork(t, c, "Mips", "RISCV")
	d, err := c.ReferenceBackend("Mips")
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.Functions) != len(d.Funcs) {
		t.Errorf("forked %d functions, donor has %d", len(ff.Functions), len(d.Funcs))
	}
	for _, f := range ff.Functions {
		if len(f.Statements) == 0 {
			t.Errorf("%s: empty fork", f.Name)
		}
		if f.Target != "RISCV" {
			t.Errorf("%s: target %q", f.Name, f.Target)
		}
	}
}

func TestForkRenamesNamespaces(t *testing.T) {
	c := buildCorpus(t)
	ff := fork(t, c, "Mips", "RISCV")
	reloc := ff.Function("getRelocType")
	if reloc == nil {
		t.Fatal("getRelocType missing")
	}
	text := reloc.Render()
	if strings.Contains(text, "Mips::") || strings.Contains(text, "MIPS") {
		t.Errorf("donor namespace survived the rename:\n%s", text)
	}
	if !strings.Contains(text, "RISCV::") {
		t.Errorf("target namespace missing:\n%s", text)
	}
	// The mechanically renamed fixup names do NOT match RISC-V's actual
	// enum (fixup_RISCV_HI16 vs fixup_riscv_hi20) — the reason the
	// baseline fails pass@1.
	if !strings.Contains(text, "fixup_RISCV_") {
		t.Errorf("expected mechanically renamed fixups:\n%s", text)
	}
}

func TestForkRenamesStrings(t *testing.T) {
	c := buildCorpus(t)
	ff := fork(t, c, "Mips", "RISCV")
	cpu := ff.Function("isValidCPU")
	if cpu == nil {
		t.Fatal("isValidCPU missing")
	}
	text := cpu.Render()
	if strings.Contains(text, "mips32r2") {
		t.Errorf("string literal not renamed:\n%s", text)
	}
}

func TestForkedFunctionsParse(t *testing.T) {
	c := buildCorpus(t)
	for _, tgt := range []string{"RISCV", "RI5CY", "XCore"} {
		ff := fork(t, c, DefaultDonor, tgt)
		for _, f := range ff.Functions {
			if _, err := f.Parse(); err != nil {
				t.Errorf("%s/%s does not parse: %v", tgt, f.Name, err)
			}
		}
	}
}

func TestForkAllStatementsAsserted(t *testing.T) {
	c := buildCorpus(t)
	ff := fork(t, c, DefaultDonor, "XCore")
	for _, f := range ff.Functions {
		for _, s := range f.Statements {
			if s.Score != 1.0 {
				t.Fatalf("%s: fork-flow must assert full confidence", f.Name)
			}
		}
	}
}

// TestForkOutsideFleet: a donor or target the fleet lacks is an error,
// and a fork within an extended fleet reaches its family targets.
func TestForkOutsideFleet(t *testing.T) {
	c := buildCorpus(t)
	if _, err := Fork(c, "Z80", "RISCV"); err == nil {
		t.Error("unknown donor: no error")
	}
	if _, err := Fork(c, DefaultDonor, "Z80"); err == nil {
		t.Error("unknown target: no error")
	}
	specs, err := corpus.Fleet("extended")
	if err != nil {
		t.Fatal(err)
	}
	ext := corpus.NewStream(specs)
	if corpus.FindSpec(c, "TC62") != nil || corpus.FindSpec(ext, "TC62") == nil {
		t.Fatal("TC62 should be a family target of the extended fleet only")
	}
	ff := fork(t, ext, DefaultDonor, "TC62")
	if len(ff.Functions) == 0 {
		t.Fatal("empty fork")
	}
	if text := ff.Function("getRelocType").Render(); !strings.Contains(text, "TC62::") {
		t.Errorf("family target namespace missing:\n%s", text)
	}
}
