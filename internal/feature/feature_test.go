package feature

import (
	"testing"

	"vega/internal/cpp"
	"vega/internal/tablegen"
	"vega/internal/template"
)

// miniTree builds a small LLVM-shaped source tree with two training
// targets (ARM, MIPS) exercising every discovery method.
func miniTree() *tablegen.SourceTree {
	tree := tablegen.NewSourceTree()
	// --- LLVMDIRs ---
	tree.Add("llvm/MC/MCFixup.h", `
class MCFixup {};
enum MCFixupKind {
  FK_NONE = 0,
  FK_Data_4 = 1,
  FirstTargetFixupKind = 128
};`)
	tree.Add("llvm/MC/MCExpr.h", `
class MCSymbolRefExpr {
};
enum VariantKind {
  VK_None = 0
};`)
	tree.Add("llvm/BinaryFormat/ELF.h", `
enum ELF_RELOC {
  R_NONE = 0
};`)
	tree.Add("llvm/Target/Target.td", `
class Target {
  string Name = "";
}
class Operand {
  string OperandType = "OPERAND_UNKNOWN";
}
class Register {
  string AsmName = "";
}
class Instruction {
  string AsmString = "";
}`)
	// --- ARM TGTDIRs ---
	tree.Add("lib/Target/ARM/ARM.td", `
def ARMTarget : Target {
  let Name = "ARM";
}`)
	tree.Add("lib/Target/ARM/ARMInstrInfo.td", `
OperandType = "OPERAND_PCREL"
class ARMInst : Instruction {
}
def MOVT : ARMInst {
  let AsmString = "movt";
}`)
	tree.Add("lib/Target/ARM/ARMFixupKinds.h", `
enum Fixups {
  fixup_arm_movt_hi16 = FirstTargetFixupKind,
  fixup_arm_ldst = FirstTargetFixupKind + 1,
  NumTargetFixupKinds = 2
};`)
	tree.Add("lib/Target/ARM/ARMMCExpr.h", `
enum VariantKind {
  VK_ARM_HI16 = 1
};`)
	tree.Add("llvm/BinaryFormat/ELFRelocs/ARM.def", `
ELF_RELOC(R_ARM_NONE, 0)
ELF_RELOC(R_ARM_MOVT_PREL, 45)
ELF_RELOC(R_ARM_ABS32, 2)
`)
	// --- MIPS TGTDIRs (no VariantKind specialization) ---
	tree.Add("lib/Target/MIPS/MIPS.td", `
def MIPSTarget : Target {
  let Name = "Mips";
}`)
	tree.Add("lib/Target/MIPS/MIPSInstrInfo.td", `
OperandType = "OPERAND_PCREL"
class MipsInst : Instruction {
}
def LUI : MipsInst {
  let AsmString = "lui";
}`)
	tree.Add("lib/Target/MIPS/MIPSFixupKinds.h", `
enum Fixups {
  fixup_MIPS_HI16 = FirstTargetFixupKind,
  fixup_MIPS_LO16 = FirstTargetFixupKind + 1,
  NumTargetFixupKinds = 2
};`)
	tree.Add("llvm/BinaryFormat/ELFRelocs/MIPS.def", `
ELF_RELOC(R_MIPS_NONE, 0)
ELF_RELOC(R_MIPS_HI16, 5)
ELF_RELOC(R_MIPS_32, 2)
`)
	return tree
}

const armGetReloc = `unsigned ARMELFObjectWriter::getRelocType(unsigned Kind, bool IsPCRel) {
  unsigned K = Fixup.getTargetKind();
  MCSymbolRefExpr::VariantKind Modifier = Target.getAccessVariant();
  if (IsPCRel) {
    switch (K) {
    case ARM::fixup_arm_movt_hi16:
      return ELF::R_ARM_MOVT_PREL;
    default:
      return ELF::R_ARM_NONE;
    }
  }
  return ELF::R_ARM_ABS32;
}`

const mipsGetReloc = `unsigned MIPSELFObjectWriter::getRelocType(unsigned Kind, bool IsPCRel) {
  unsigned K = Fixup.getTargetKind();
  if (IsPCRel) {
    switch (K) {
    case MIPS::fixup_MIPS_HI16:
      return ELF::R_MIPS_HI16;
    default:
      return ELF::R_MIPS_NONE;
    }
  }
  return ELF::R_MIPS_32;
}`

func relocTemplate(t *testing.T) *template.FunctionTemplate {
	t.Helper()
	parse := func(src string) *cpp.Node {
		fn, err := cpp.ParseFunction(src)
		if err != nil {
			t.Fatal(err)
		}
		return fn
	}
	ft, err := template.Build("getRelocType", []template.Impl{
		template.NewImpl("ARM", parse(armGetReloc)),
		template.NewImpl("MIPS", parse(mipsGetReloc)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestPropListContainsDeclarations(t *testing.T) {
	e := NewExtractor(miniTree(), nil)
	for _, want := range []string{"MCFixupKind", "MCSymbolRefExpr", "VariantKind", "ELF_RELOC", "Name", "OperandType", "Target", "Instruction"} {
		if !e.InPropList(want) {
			t.Errorf("PropList missing %q", want)
		}
	}
	// Target-local identifiers must not be candidate properties.
	for _, wrong := range []string{"fixup_arm_movt_hi16", "ARMInst", "MOVT"} {
		if e.InPropList(wrong) {
			t.Errorf("PropList wrongly contains target-local %q", wrong)
		}
	}
}

func TestSelectIndependentProperties(t *testing.T) {
	e := NewExtractor(miniTree(), nil)
	tf := e.Select(relocTemplate(t), []string{"ARM", "MIPS"})

	vi := tf.PropIndex("VariantKind")
	if vi == -1 {
		t.Fatalf("VariantKind property not selected; props = %+v", tf.Props)
	}
	if tf.Props[vi].Kind != Independent {
		t.Errorf("VariantKind kind = %v", tf.Props[vi].Kind)
	}
	arm, mips := tf.Targets["ARM"], tf.Targets["MIPS"]
	if !arm.Bools["VariantKind"].Value {
		t.Error("VariantKind should be true for ARM (specialized in ARMMCExpr.h)")
	}
	if mips.Bools["VariantKind"].Value {
		t.Error("VariantKind should be false for MIPS (not specialized)")
	}
	if arm.Bools["VariantKind"].UpdateSite != "lib/Target/ARM/ARMMCExpr.h" {
		t.Errorf("VariantKind ARM update site = %q", arm.Bools["VariantKind"].UpdateSite)
	}

	// MCSymbolRefExpr is declared only in LLVMDIRs: universal, true for both.
	si := tf.PropIndex("MCSymbolRefExpr")
	if si == -1 {
		t.Fatal("MCSymbolRefExpr property not selected")
	}
	if !arm.Bools["MCSymbolRefExpr"].Value || !mips.Bools["MCSymbolRefExpr"].Value {
		t.Error("MCSymbolRefExpr should be universally true")
	}

	// OperandType is discovered from IsPCRel by partial matching.
	oi := tf.PropIndex("OperandType")
	if oi == -1 {
		t.Fatalf("OperandType not discovered via partial match; props = %+v", tf.Props)
	}
	if !arm.Bools["OperandType"].Value || !mips.Bools["OperandType"].Value {
		t.Error("OperandType should be true for both targets")
	}
}

func TestSelectDependentProperties(t *testing.T) {
	e := NewExtractor(miniTree(), nil)
	tf := e.Select(relocTemplate(t), []string{"ARM", "MIPS"})

	fi := tf.PropIndex("MCFixupKind")
	if fi == -1 {
		t.Fatalf("MCFixupKind not selected; props = %+v", tf.Props)
	}
	if tf.Props[fi].Kind != Dependent || tf.Props[fi].Method != MethodEnum {
		t.Errorf("MCFixupKind = %+v", tf.Props[fi])
	}
	arm := tf.Targets["ARM"]
	dep := arm.Deps["MCFixupKind"]
	if dep.N() != 2 {
		t.Errorf("ARM MCFixupKind candidates = %v, want 2 (Num sentinel filtered)", dep.Candidates)
	}
	if dep.Candidates[0] != "fixup_arm_movt_hi16" {
		t.Errorf("first candidate = %q", dep.Candidates[0])
	}
	if dep.UpdateSite != "lib/Target/ARM/ARMFixupKinds.h" {
		t.Errorf("update site = %q", dep.UpdateSite)
	}

	// Name discovered from placeholder value "ARM" matching Name = "ARM".
	ni := tf.PropIndex("Name")
	if ni == -1 {
		t.Fatalf("Name property not selected; props = %+v", tf.Props)
	}
	if got := arm.Deps["Name"].Candidates; len(got) != 1 || got[0] != "ARM" {
		t.Errorf("ARM Name candidates = %v", got)
	}
	if got := tf.Targets["MIPS"].Deps["Name"].Candidates; len(got) != 1 || got[0] != "Mips" {
		t.Errorf("MIPS Name candidates = %v", got)
	}

	// ELF_RELOC values from the .def files.
	ei := tf.PropIndex("ELF_RELOC")
	if ei == -1 {
		t.Fatalf("ELF_RELOC not selected; props = %+v", tf.Props)
	}
	if got := arm.Deps["ELF_RELOC"].Candidates; len(got) != 3 {
		t.Errorf("ARM ELF_RELOC candidates = %v", got)
	}
	for _, c := range tf.Targets["MIPS"].Deps["ELF_RELOC"].Candidates {
		if c == "R_ARM_NONE" {
			t.Error("MIPS candidates leaked ARM relocations")
		}
	}
}

func TestVarPropsLinkage(t *testing.T) {
	e := NewExtractor(miniTree(), nil)
	ft := relocTemplate(t)
	tf := e.Select(ft, []string{"ARM", "MIPS"})
	if len(tf.VarProps) == 0 {
		t.Fatal("no placeholder-property links")
	}
	// Some placeholder must link to MCFixupKind.
	fi := tf.PropIndex("MCFixupKind")
	found := false
	for _, props := range tf.VarProps {
		for _, pi := range props {
			if pi == fi {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no placeholder linked to MCFixupKind: %+v", tf.VarProps)
	}
}

func TestTargetValuesForUnseenTarget(t *testing.T) {
	tree := miniTree()
	// Add RISCV description files only — no implementation exists.
	tree.Add("lib/Target/RISCV/RISCV.td", `
def RISCVTarget : Target {
  let Name = "RISCV";
}`)
	tree.Add("lib/Target/RISCV/RISCVInstrInfo.td", `
OperandType = "OPERAND_PCREL"
class RVInst : Instruction {
}
def LUI : RVInst {
  let AsmString = "lui";
}`)
	tree.Add("lib/Target/RISCV/RISCVFixupKinds.h", `
enum Fixups {
  fixup_riscv_pcrel_hi20 = FirstTargetFixupKind,
  NumTargetFixupKinds = 1
};`)
	tree.Add("llvm/BinaryFormat/ELFRelocs/RISCV.def", `
ELF_RELOC(R_RISCV_NONE, 0)
ELF_RELOC(R_RISCV_PCREL_HI20, 23)
`)
	e := NewExtractor(tree, nil)
	tf := e.Select(relocTemplate(t), []string{"ARM", "MIPS"})
	rv := e.TargetValues(tf, "RISCV")

	if rv.Bools["VariantKind"].Value {
		t.Error("RISCV does not specialize VariantKind")
	}
	if !rv.Bools["OperandType"].Value {
		t.Error("RISCV OperandType should be true")
	}
	if got := rv.Deps["MCFixupKind"].Candidates; len(got) != 1 || got[0] != "fixup_riscv_pcrel_hi20" {
		t.Errorf("RISCV fixup candidates = %v", got)
	}
	if got := rv.Deps["Name"].Candidates; len(got) != 1 || got[0] != "RISCV" {
		t.Errorf("RISCV Name candidates = %v", got)
	}
	if got := rv.Deps["ELF_RELOC"].Candidates; len(got) != 2 {
		t.Errorf("RISCV reloc candidates = %v", got)
	}
}

func TestPartialMatch(t *testing.T) {
	cases := []struct {
		tok, str string
		want     bool
	}{
		{"IsPCRel", "OPERAND_PCREL", true},
		{"OperandType", "OPERAND_PCREL", true},
		{"ARMELFObjectWriter", "ARM", true}, // prefix rule: short value explains long token
		{"fixup_arm_movt_hi16", "movt", true},
		{"Kind", "OPERAND_PCREL", false},
		{"x", "y", false},
		{"", "anything", false},
	}
	for _, c := range cases {
		if got := PartialMatch(c.tok, c.str); got != c.want {
			t.Errorf("PartialMatch(%q, %q) = %v, want %v", c.tok, c.str, got, c.want)
		}
	}
}

func TestCamelRuns(t *testing.T) {
	got := camelRuns("IsPCRelMovtHi16")
	want := []string{"Is", "PC", "Rel", "Movt", "Hi16"}
	if len(got) != len(want) {
		t.Fatalf("camelRuns = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d = %q, want %q", i, got[i], want[i])
		}
	}
}
