package tablegen

import (
	"reflect"
	"slices"
	"testing"
)

const sampleTD = `
// RISCV.td - top level target description
Name = "RISCV"

class Proc<string n> {
  string ProcName = n;
}

def GenericRV32 : Proc<"generic-rv32">;

class RVInst {
  string Namespace = "RISCV";
  bits<7> Opcode = 0b0110011;
}

def ADD : RVInst {
  let Name = "add";
  string AsmString = "add $rd, $rs1, $rs2";
  OperandType = "OPERAND_REG";
}
`

func TestParseTDRecords(t *testing.T) {
	f, err := ParseTD(sampleTD)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Records) != 4 {
		t.Fatalf("records = %d, want 4", len(f.Records))
	}
	add, ok := f.Def("ADD")
	if !ok {
		t.Fatal("def ADD not found")
	}
	if !slices.Contains(add.Parents, "RVInst") {
		t.Errorf("ADD parents = %v", add.Parents)
	}
	name, ok := add.Lookup("Name")
	if !ok || name.Value != "add" || !name.IsString {
		t.Errorf("ADD.Name = %+v", name)
	}
	asm, ok := add.Lookup("AsmString")
	if !ok || asm.Value != "add $rd, $rs1, $rs2" {
		t.Errorf("ADD.AsmString = %+v", asm)
	}
}

func TestParseTDTopAssigns(t *testing.T) {
	f, err := ParseTD(sampleTD)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.TopAssigns) != 1 || f.TopAssigns[0].Name != "Name" || f.TopAssigns[0].Value != "RISCV" {
		t.Errorf("top assigns = %+v", f.TopAssigns)
	}
}

func TestParseTDClassFields(t *testing.T) {
	f, err := ParseTD(sampleTD)
	if err != nil {
		t.Fatal(err)
	}
	var inst *Record
	for i := range f.Records {
		if f.Records[i].Name == "RVInst" {
			inst = &f.Records[i]
		}
	}
	if inst == nil {
		t.Fatal("class RVInst not found")
	}
	ns, ok := inst.Lookup("Namespace")
	if !ok || ns.Value != "RISCV" {
		t.Errorf("Namespace = %+v", ns)
	}
	op, ok := inst.Lookup("Opcode")
	if !ok || op.Value != "0b0110011" {
		t.Errorf("Opcode = %+v", op)
	}
}

func TestParseTDAnonymousDef(t *testing.T) {
	f, err := ParseTD(`def : Proc<"generic">;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Records) != 1 || f.Records[0].Name != "" || !slices.Contains(f.Records[0].Parents, "Proc") {
		t.Errorf("records = %+v", f.Records)
	}
}

func TestParseTDErrors(t *testing.T) {
	for _, src := range []string{
		`def X : { }`,       // missing parent name
		`class X { string`,  // truncated body
		`def X : Y { ??? }`, // garbage in body
	} {
		if _, err := ParseTD(src); err == nil {
			t.Errorf("ParseTD(%q): expected error", src)
		}
	}
}

const sampleHeader = `
#ifndef RISCV_FIXUP_KINDS_H
namespace RISCV {
enum Fixups {
  fixup_riscv_hi20 = FirstTargetFixupKind,
  fixup_riscv_lo12_i,
  fixup_riscv_pcrel_hi20,
  NumTargetFixupKinds = fixup_riscv_pcrel_hi20 - FirstTargetFixupKind + 1
};
enum class OperandFlags : unsigned {
  OF_None = 0,
  OF_Imm = 1
};
}
#endif
`

func TestParseEnums(t *testing.T) {
	enums, err := ParseEnums(sampleHeader)
	if err != nil {
		t.Fatal(err)
	}
	if len(enums) != 2 {
		t.Fatalf("enums = %d, want 2", len(enums))
	}
	fix := enums[0]
	if fix.Name != "Fixups" {
		t.Errorf("name = %q", fix.Name)
	}
	want := []string{"fixup_riscv_hi20", "fixup_riscv_lo12_i", "fixup_riscv_pcrel_hi20", "NumTargetFixupKinds"}
	if got := fix.MemberNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("members = %v, want %v", got, want)
	}
	if fix.Members[0].Value != "FirstTargetFixupKind" {
		t.Errorf("first member value = %q", fix.Members[0].Value)
	}
	if !fix.Has("fixup_riscv_hi20") || fix.Has("nope") {
		t.Error("Has misbehaves")
	}
	if enums[1].Name != "OperandFlags" || len(enums[1].Members) != 2 {
		t.Errorf("enum class = %+v", enums[1])
	}
}

func TestParseDefFile(t *testing.T) {
	macros, err := ParseDefFile(`
ELF_RELOC(R_RISCV_NONE, 0)
ELF_RELOC(R_RISCV_32, 1)
ELF_RELOC(R_RISCV_HI20, 26)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(macros) != 3 {
		t.Fatalf("macros = %d", len(macros))
	}
	if macros[2].Name != "ELF_RELOC" || macros[2].Args[0] != "R_RISCV_HI20" || macros[2].Args[1] != "26" {
		t.Errorf("macro = %+v", macros[2])
	}
}

func TestSourceTreeTokenSearch(t *testing.T) {
	tree := NewSourceTree()
	tree.Add("llvm/MC/MCExpr.h", "class MCSymbolRefExpr { enum VariantKind { VK_None }; };")
	tree.Add("lib/Target/RISCV/RISCVFixupKinds.h", sampleHeader)
	tree.Add("lib/Target/RISCV/RISCV.td", sampleTD)

	llvmDirs := []string{"llvm/MC"}
	tgtDirs := []string{"lib/Target/RISCV"}

	if len(tree.FindToken("MCSymbolRefExpr", llvmDirs)) == 0 {
		t.Error("MCSymbolRefExpr not found in LLVMDIRs")
	}
	if len(tree.FindToken("MCSymbolRefExpr", tgtDirs)) > 0 {
		t.Error("MCSymbolRefExpr should not be in TGTDIRs")
	}
	paths := tree.FindToken("fixup_riscv_hi20", tgtDirs)
	if len(paths) != 1 || paths[0] != "lib/Target/RISCV/RISCVFixupKinds.h" {
		t.Errorf("FindToken = %v", paths)
	}
}

func TestSourceTreeAssignments(t *testing.T) {
	tree := NewSourceTree()
	tree.Add("lib/Target/RISCV/RISCV.td", sampleTD)
	as := tree.AssignmentsUnder([]string{"lib/Target/RISCV"})
	var found bool
	for _, a := range as {
		if a.LHS == "Name" && a.RHS == "RISCV" && a.IsStr {
			found = true
		}
	}
	if !found {
		t.Errorf("Name = \"RISCV\" assignment missing from %+v", as)
	}
}

func TestSourceTreeEnumQueries(t *testing.T) {
	tree := NewSourceTree()
	tree.Add("lib/Target/RISCV/RISCVFixupKinds.h", sampleHeader)
	name, path, ok := tree.EnumContaining("fixup_riscv_pcrel_hi20", []string{"lib/Target/RISCV"})
	if !ok || name != "Fixups" || path != "lib/Target/RISCV/RISCVFixupKinds.h" {
		t.Errorf("EnumContaining = %q %q %v", name, path, ok)
	}
	members := tree.EnumMembers("Fixups", []string{"lib/Target/RISCV"})
	if len(members) != 4 {
		t.Errorf("EnumMembers = %v", members)
	}
	if _, _, ok := tree.EnumContaining("no_such_member", []string{"lib/Target/RISCV"}); ok {
		t.Error("EnumContaining false positive")
	}
}

func TestSourceTreePathsUnder(t *testing.T) {
	tree := NewSourceTree()
	tree.Add("lib/Target/ARM/ARM.td", "Name = \"ARM\"")
	tree.Add("lib/Target/ARMX/X.td", "Name = \"ARMX\"")
	got := tree.PathsUnder([]string{"lib/Target/ARM"})
	if len(got) != 1 || got[0] != "lib/Target/ARM/ARM.td" {
		t.Errorf("prefix matching leaked across sibling dirs: %v", got)
	}
}

func TestSourceTreeInvalidation(t *testing.T) {
	tree := NewSourceTree()
	tree.Add("a/x.td", "Name = \"One\"")
	_ = tree.FindToken("One", []string{"a"}) // builds index
	tree.Add("a/x.td", "Name = \"Two\"")
	if len(tree.FindToken("One", []string{"a"})) > 0 {
		t.Error("stale token index after Add")
	}
	if len(tree.FindToken("Two", []string{"a"})) == 0 {
		t.Error("new content not indexed")
	}
}

func TestListAssignments(t *testing.T) {
	tree := NewSourceTree()
	tree.Add("lib/Target/X/XRegisterInfo.td", `
def XCSR : CalleeSavedRegs {
  let SaveList = [X8, X9, X18];
}`)
	las := tree.ListAssignmentsUnder([]string{"lib/Target/X"})
	if len(las) != 1 {
		t.Fatalf("list assignments = %d", len(las))
	}
	la := las[0]
	if la.LHS != "SaveList" || len(la.Items) != 3 || la.Items[1] != "X9" {
		t.Errorf("list assignment = %+v", la)
	}
}

func TestListAssignmentsIgnoreNonTd(t *testing.T) {
	tree := NewSourceTree()
	tree.Add("lib/Target/X/X.h", "int a[] = [1, 2];")
	if got := tree.ListAssignmentsUnder([]string{"lib/Target/X"}); len(got) != 0 {
		t.Errorf("non-td list assignments = %v", got)
	}
}

// TestParseTDNegativeCache pins the tree's parsed-.td cache: a file that
// fails to parse keeps reporting its error on every later call — it is
// never stored as a nil success, and never conflated with a file that
// parses to an empty (but valid) TDFile — and Add replacing a file
// drops the cached parses and memos, so both see the new content.
func TestParseTDNegativeCache(t *testing.T) {
	tree := NewSourceTree()
	tree.Add("lib/Target/ARM/Bad.td", "def Foo {") // unterminated record body
	tree.Add("lib/Target/ARM/Empty.td", "")        // valid, parses to an empty file

	var firstErr error
	for i := 0; i < 2; i++ { // second round is served from the cache
		td, err := tree.TD("lib/Target/ARM/Bad.td")
		if err == nil || td != nil {
			t.Fatalf("round %d: bad file parsed: td=%v err=%v", i, td, err)
		}
		if i == 0 {
			firstErr = err
		} else if err != firstErr {
			t.Fatalf("cached failure %v differs from the first %v", err, firstErr)
		}
		if td, err := tree.TD("lib/Target/ARM/Empty.td"); err != nil || td == nil {
			t.Fatalf("round %d: valid empty file rejected: td=%v err=%v", i, td, err)
		}
	}
	if _, ok := tree.memos["tablegen.TD\x00lib/Target/ARM/Bad.td"]; !ok {
		t.Fatal("parse failure not remembered")
	}
	empty, _ := tree.TD("lib/Target/ARM/Empty.td")
	if again, _ := tree.TD("lib/Target/ARM/Empty.td"); again != empty {
		t.Fatal("second parse not served from the cache")
	}

	builds := 0
	memo := func() any {
		return tree.Memo("test", func() any {
			builds++
			content, _ := tree.Content("lib/Target/ARM/Bad.td")
			return content
		})
	}
	if memo() != "def Foo {" || memo() != "def Foo {" || builds != 1 {
		t.Fatalf("memo built %d times, want 1", builds)
	}

	// Replacing the failing file with valid text drops both its cached
	// failure and every memo.
	tree.Add("lib/Target/ARM/Bad.td", "def Foo;")
	td, err := tree.TD("lib/Target/ARM/Bad.td")
	if err != nil || len(td.Records) != 1 || td.Records[0].Name != "Foo" {
		t.Fatalf("parse after Add: td=%+v err=%v", td, err)
	}
	if got := memo(); got != "def Foo;" || builds != 2 {
		t.Fatalf("memo after Add = %v after %d builds, want the new content from a second build", got, builds)
	}
}
