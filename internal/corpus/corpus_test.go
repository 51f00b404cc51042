package corpus

import (
	"strings"
	"testing"

	"vega/internal/cpp"
	"vega/internal/feature"
	"vega/internal/tablegen"
)

func buildCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTargetsFleet(t *testing.T) {
	ts := Targets()
	if len(ts) < 15 {
		t.Fatalf("fleet too small: %d", len(ts))
	}
	evals := EvalTargets()
	if len(evals) != 3 {
		t.Fatalf("eval targets = %d, want 3", len(evals))
	}
	names := map[string]bool{}
	for _, e := range evals {
		names[e.Name] = true
	}
	for _, want := range []string{"RISCV", "RI5CY", "XCore"} {
		if !names[want] {
			t.Errorf("missing eval target %s", want)
		}
	}
	for _, ts := range Targets() {
		if ts.SPIndex >= ts.NumRegs || (ts.FPIndex >= 0 && ts.FPIndex >= ts.NumRegs) {
			t.Errorf("%s: register indexes out of range", ts.Name)
		}
		if len(ts.InstSet) == 0 || len(ts.FixupKinds) == 0 {
			t.Errorf("%s: empty ISA", ts.Name)
		}
	}
}

func TestEveryReferenceFunctionParses(t *testing.T) {
	c := buildCorpus(t)
	for name, b := range c.Backends {
		if len(b.Funcs) < 30 {
			t.Errorf("%s implements only %d functions", name, len(b.Funcs))
		}
		for fname, fn := range b.Funcs {
			if fn.FunctionName() == "" {
				t.Errorf("%s %s: no function name", name, fname)
			}
		}
	}
}

func TestXCoreLacksDisassembler(t *testing.T) {
	c := buildCorpus(t)
	x := c.Backends["XCore"]
	for _, f := range disFuncs() {
		if _, ok := x.Funcs[f.Name]; ok {
			t.Errorf("XCore should lack DIS function %s", f.Name)
		}
	}
	r := c.Backends["RISCV"]
	if _, ok := r.Funcs["decodeGPRRegisterClass"]; !ok {
		t.Error("RISCV should have a disassembler")
	}
}

func TestHardwareLoopOnlyWhereDeclared(t *testing.T) {
	c := buildCorpus(t)
	if _, ok := c.Backends["RISCV"].Funcs["convertToHardwareLoop"]; ok {
		t.Error("RISCV must not implement convertToHardwareLoop")
	}
	if _, ok := c.Backends["RI5CY"].Funcs["convertToHardwareLoop"]; !ok {
		t.Error("RI5CY must implement convertToHardwareLoop")
	}
	if _, ok := c.Backends["Hexagon"].Funcs["convertToHardwareLoop"]; !ok {
		t.Error("Hexagon must implement convertToHardwareLoop")
	}
}

func TestDescriptionFilesParse(t *testing.T) {
	c := buildCorpus(t)
	for _, p := range c.Tree.Paths() {
		content, _ := c.Tree.Content(p)
		switch {
		case strings.HasSuffix(p, ".td"):
			if _, err := tablegen.ParseTD(content); err != nil {
				t.Errorf("%s: %v", p, err)
			}
		case strings.HasSuffix(p, ".h"):
			if _, err := tablegen.ParseEnums(content); err != nil {
				t.Errorf("%s: %v", p, err)
			}
		case strings.HasSuffix(p, ".def"):
			if _, err := tablegen.ParseDefFile(content); err != nil {
				t.Errorf("%s: %v", p, err)
			}
		}
	}
}

func TestDescriptionFileConventions(t *testing.T) {
	c := buildCorpus(t)
	for _, tgt := range c.Targets {
		dir := "lib/Target/" + tgt.Name + "/"
		for _, want := range []string{
			dir + tgt.Name + ".td",
			dir + tgt.Name + "RegisterInfo.td",
			dir + tgt.Name + "InstrInfo.td",
			dir + tgt.Name + "FixupKinds.h",
			"llvm/BinaryFormat/ELFRelocs/" + tgt.Name + ".def",
		} {
			if _, ok := c.Tree.Content(want); !ok {
				t.Errorf("missing description file %s", want)
			}
		}
		if tgt.HasVariantKind {
			if _, ok := c.Tree.Content(dir + tgt.Name + "MCExpr.h"); !ok {
				t.Errorf("%s: HasVariantKind target missing MCExpr.h", tgt.Name)
			}
		}
	}
}

func TestFixupNamingConventions(t *testing.T) {
	arm := FindTarget("ARM")
	mips := FindTarget("Mips")
	rv := FindTarget("RISCV")
	if got := arm.Fixups()[0].Name; got != "fixup_arm_hi16" {
		t.Errorf("ARM fixup = %q", got)
	}
	if got := mips.Fixups()[0].Name; got != "fixup_MIPS_HI16" {
		t.Errorf("Mips fixup = %q", got)
	}
	if got := rv.Fixups()[0].Name; got != "fixup_riscv_hi20" {
		t.Errorf("RISCV fixup = %q", got)
	}
	if got := rv.Fixups()[0].Reloc; got != "R_RISCV_HI20" {
		t.Errorf("RISCV reloc = %q", got)
	}
}

func TestFeatureExtractionOnCorpus(t *testing.T) {
	c := buildCorpus(t)
	e := feature.NewExtractor(c.Tree, nil)
	// Key properties must be in the candidate set.
	for _, want := range []string{"MCFixupKind", "ELF_RELOC", "Register", "BranchInst", "SaveList", "FramePointer", "StackPointer", "HasHardwareLoop", "Name", "AsmString", "StackAlignment"} {
		if !e.InPropList(want) {
			t.Errorf("PropList missing %q", want)
		}
	}
}

func TestStatementCounts(t *testing.T) {
	c := buildCorpus(t)
	total := 0
	for _, b := range c.Backends {
		n := 0
		for _, fn := range b.Funcs {
			for _, s := range cpp.SplitFunction(fn) {
				if !s.Close && s.Text != "{" {
					n++
				}
			}
		}
		if n < 150 {
			t.Errorf("%s has only %d statements", b.Target.Name, n)
		}
		total += n
	}
	if total < 4000 {
		t.Errorf("corpus statements = %d, want >= 4000", total)
	}
	t.Logf("corpus: %d targets, %d statements", len(c.Backends), total)
}

func TestFunctionGroupGathering(t *testing.T) {
	c := buildCorpus(t)
	size := func(name string) int {
		t.Helper()
		fn, ok := FuncByName(name)
		if !ok {
			t.Fatalf("no interface function %s", name)
		}
		gs := c.GroupSource(fn)
		impls, err := gs.Impls()
		if err != nil {
			t.Fatal(err)
		}
		for i, tn := range gs.Targets {
			if impls[i] != c.Backends[tn].Funcs[name] {
				t.Errorf("%s: impl %d is not %s's function", name, i, tn)
			}
		}
		return len(gs.Targets)
	}
	n := len(TrainingSpecs(c))
	if got := size("getRelocType"); got != n {
		t.Errorf("getRelocType group size = %d, want %d", got, n)
	}
	if got := size("convertToHardwareLoop"); got == 0 || got >= n {
		t.Errorf("convertToHardwareLoop group size = %d, want a proper subset", got)
	}
}

func TestReferenceSourcesSplit(t *testing.T) {
	c := buildCorpus(t)
	b := c.Backends["ARM"]
	fn := b.Funcs["getRelocType"]
	sts := cpp.SplitFunction(fn)
	if len(sts) < 10 {
		t.Errorf("getRelocType splits into %d statements", len(sts))
	}
	var hasCase bool
	for _, s := range sts {
		if strings.HasPrefix(s.Text, "case ARM::fixup_arm_") {
			hasCase = true
		}
	}
	if !hasCase {
		t.Error("ARM getRelocType lost its fixup cases")
	}
}

func TestGetRelocTypeHelperInlined(t *testing.T) {
	c := buildCorpus(t)
	// MIPS-family targets wrap getRelocType in GetRelocTypeInner; the
	// pre-processing must inline it so the group aligns.
	fn := c.Backends["Mips"].Funcs["getRelocType"]
	printed := cpp.Print(fn)
	if strings.Contains(printed, "GetRelocTypeInner") {
		t.Errorf("helper call not inlined:\n%s", printed)
	}
	if !strings.Contains(printed, "switch (Kind)") {
		t.Errorf("helper body not spliced:\n%s", printed)
	}
	if src := c.Backends["Mips"].Sources["getRelocType"]; !strings.Contains(src, "GetRelocTypeInner") {
		t.Error("raw source should still show the helper (pre-inlining form)")
	}
}
