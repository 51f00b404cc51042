package template

import (
	"reflect"
	"strings"
	"testing"

	"vega/internal/cpp"
)

const armSrc = `unsigned ARMELFObjectWriter::getRelocType(unsigned Kind, bool IsPCRel) {
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

const mipsSrc = `unsigned MipsELFObjectWriter::getRelocType(unsigned Kind, bool IsPCRel) {
  unsigned K = Fixup.getTargetKind();
  if (IsPCRel) {
    switch (K) {
    case Mips::fixup_MIPS_HI16:
      return ELF::R_MIPS_HI16;
    default:
      return ELF::R_MIPS_NONE;
    }
  }
  return ELF::R_MIPS_32;
}`

func implOf(t *testing.T, target, src string) Impl {
	t.Helper()
	fn, err := cpp.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	return NewImpl(target, fn)
}

func buildReloc(t *testing.T) *FunctionTemplate {
	t.Helper()
	ft, err := Build("getRelocType", []Impl{
		implOf(t, "ARM", armSrc),
		implOf(t, "MIPS", mipsSrc),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestBuildTemplateRowCount(t *testing.T) {
	ft := buildReloc(t)
	// ARM has one extra statement (the VariantKind decl); the template must
	// carry the union.
	armLen := len(implOf(t, "ARM", armSrc).Stmts)
	if len(ft.Rows) != armLen {
		t.Errorf("rows = %d, want %d", len(ft.Rows), armLen)
	}
}

func TestTemplateOccurrences(t *testing.T) {
	ft := buildReloc(t)
	var variantRow = -1
	for i := range ft.Rows {
		if strings.Contains(JoinTokens(ft.Rows[i].PatternTokens()), "VariantKind") {
			variantRow = i
		}
	}
	if variantRow == -1 {
		t.Fatal("VariantKind row missing from template")
	}
	if !ft.Rows[variantRow].HasTarget("ARM") {
		t.Error("ARM should have the VariantKind statement")
	}
	if ft.Rows[variantRow].HasTarget("MIPS") {
		t.Error("MIPS should lack the VariantKind statement")
	}
}

func TestTemplatePlaceholders(t *testing.T) {
	ft := buildReloc(t)
	if ft.NumVars == 0 {
		t.Fatal("no placeholders produced")
	}
	// The case-label row must contain placeholders for the namespace and
	// the fixup kind.
	var caseRow = -1
	for i, row := range ft.Rows {
		toks := row.PatternTokens()
		if len(toks) > 0 && toks[0] == "case" {
			caseRow = i
		}
	}
	if caseRow == -1 {
		t.Fatal("case row missing")
	}
	ids := ft.Rows[caseRow].VarIDs()
	if len(ids) < 1 {
		t.Fatalf("case row has no placeholders: %v", ft.Rows[caseRow].PatternTokens())
	}
	vals, ok := ft.Values(caseRow, "ARM")
	if !ok {
		t.Fatal("ARM missing case row values")
	}
	joined := strings.Join(valsOf(vals, ids), " ")
	if !strings.Contains(joined, "fixup_arm_movt_hi16") || !strings.Contains(joined, "ARM") {
		t.Errorf("ARM case values = %v", vals)
	}
	mvals, ok := ft.Values(caseRow, "MIPS")
	if !ok {
		t.Fatal("MIPS missing case row values")
	}
	mjoined := strings.Join(valsOf(mvals, ids), " ")
	if !strings.Contains(mjoined, "fixup_MIPS_HI16") || !strings.Contains(mjoined, "Mips") {
		t.Errorf("MIPS case values = %v", mvals)
	}
}

func valsOf(vals map[int]string, ids []int) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, vals[id])
	}
	return out
}

func TestTemplateCommonRowsHaveNoVars(t *testing.T) {
	ft := buildReloc(t)
	for i, row := range ft.Rows {
		text := JoinTokens(row.PatternTokens())
		if strings.HasPrefix(text, "unsigned K =") || strings.HasPrefix(text, "if (IsPCRel)") || strings.HasPrefix(text, "switch") {
			if len(row.VarIDs()) != 0 {
				t.Errorf("row %d %q should be pure common code, has vars %v", i, text, row.VarIDs())
			}
		}
	}
}

func TestTemplateFunctionHead(t *testing.T) {
	ft := buildReloc(t)
	head := ft.Rows[0]
	text := JoinTokens(head.PatternTokens())
	if !strings.Contains(text, "getRelocType") {
		t.Errorf("head lost the interface name: %q", text)
	}
	if len(head.VarIDs()) == 0 {
		t.Errorf("head should contain a placeholder for the class name: %q", text)
	}
	vals, _ := ft.Values(0, "ARM")
	found := false
	for _, v := range vals {
		if v == "ARMELFObjectWriter" {
			found = true
		}
	}
	if !found {
		t.Errorf("head values for ARM = %v, want class name", vals)
	}
}

func TestValuesMissingTarget(t *testing.T) {
	ft := buildReloc(t)
	for i := range ft.Rows {
		if !ft.Rows[i].HasTarget("MIPS") {
			if _, ok := ft.Values(i, "MIPS"); ok {
				t.Errorf("row %d: Values for absent target should report !ok", i)
			}
			return
		}
	}
	t.Fatal("no MIPS-absent row found")
}

func TestRenderWithValues(t *testing.T) {
	ft := buildReloc(t)
	lines := ft.Render(
		func(row int) bool { return ft.Rows[row].HasTarget("ARM") },
		func(row, id int) (string, bool) {
			vals, ok := ft.Values(row, "ARM")
			if !ok {
				return "", false
			}
			v, ok := vals[id]
			return v, ok
		})
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "case ARM::fixup_arm_movt_hi16:") {
		t.Errorf("render lost ARM case label:\n%s", joined)
	}
	if !strings.Contains(joined, "return ELF::R_ARM_MOVT_PREL;") {
		t.Errorf("render lost ARM return:\n%s", joined)
	}
	// Rendered statements must reparse as a function.
	if _, err := cpp.ParseFunction(joined); err != nil {
		t.Errorf("rendered ARM function does not reparse: %v\n%s", err, joined)
	}
}

func TestRenderMatchesOriginalStatements(t *testing.T) {
	ft := buildReloc(t)
	impl := implOf(t, "MIPS", mipsSrc)
	var mine []string
	for i := range ft.Rows {
		if toks, ok := ft.Rows[i].PerTarget["MIPS"]; ok {
			mine = append(mine, JoinTokens(toks))
		}
	}
	var orig []string
	for _, st := range impl.Stmts {
		orig = append(orig, JoinTokens(cpp.StatementTokens(st.Text)))
	}
	if len(mine) != len(orig) {
		t.Fatalf("statement counts differ: %d vs %d", len(mine), len(orig))
	}
	for i := range mine {
		if mine[i] != orig[i] {
			t.Errorf("statement %d: %q vs %q", i, mine[i], orig[i])
		}
	}
}

func TestBuildSingleImpl(t *testing.T) {
	ft, err := Build("getRelocType", []Impl{implOf(t, "ARM", armSrc)})
	if err != nil {
		t.Fatal(err)
	}
	if ft.NumVars != 0 {
		t.Errorf("single-impl template should have no placeholders, got %d", ft.NumVars)
	}
	if len(ft.Rows) != len(implOf(t, "ARM", armSrc).Stmts) {
		t.Errorf("rows = %d", len(ft.Rows))
	}
}

func TestBuildEmptyGroup(t *testing.T) {
	if _, err := Build("x", nil); err == nil {
		t.Error("expected error for empty group")
	}
}

func TestThreeWayMerge(t *testing.T) {
	third := `unsigned RISCVELFObjectWriter::getRelocType(unsigned Kind, bool IsPCRel) {
  unsigned K = Fixup.getTargetKind();
  if (IsPCRel) {
    switch (K) {
    case RISCV::fixup_riscv_pcrel_hi20:
      return ELF::R_RISCV_PCREL_HI20;
    default:
      return ELF::R_RISCV_NONE;
    }
  }
  return ELF::R_RISCV_32;
}`
	ft, err := Build("getRelocType", []Impl{
		implOf(t, "ARM", armSrc),
		implOf(t, "MIPS", mipsSrc),
		implOf(t, "RISCV", third),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Targets) != 3 {
		t.Errorf("targets = %v", ft.Targets)
	}
	// Each target's values must round-trip its own case label.
	for i, row := range ft.Rows {
		toks := row.PatternTokens()
		if len(toks) > 0 && toks[0] == "case" {
			for tgt, want := range map[string]string{
				"ARM": "fixup_arm_movt_hi16", "MIPS": "fixup_MIPS_HI16", "RISCV": "fixup_riscv_pcrel_hi20",
			} {
				vals, ok := ft.Values(i, tgt)
				if !ok {
					t.Fatalf("%s missing case row", tgt)
				}
				var hit bool
				for _, v := range vals {
					if strings.Contains(v, want) {
						hit = true
					}
				}
				if !hit {
					t.Errorf("%s case values %v missing %q", tgt, vals, want)
				}
			}
		}
	}
}

// mergeRow writes each new target into its row's PerTarget map in place.
// That is safe only while every row owns its map and Build leaves the
// callers' statements alone; each target's rows must also still spell
// out exactly its own statements, in order.
func TestBuildRowsOwnPerTargetMaps(t *testing.T) {
	// X86 brings two statements no earlier target has, so one merge
	// appends two new rows.
	x86 := `unsigned X86ELFObjectWriter::getRelocType(unsigned Kind, bool IsPCRel) {
  unsigned K = Fixup.getTargetKind();
  X86_64RelType Type = getType64(Kind, Modifier, IsPCRel);
  checkIs32(Ctx, Loc, Type);
  return ELF::R_X86_64_32;
}`
	impls := []Impl{
		implOf(t, "ARM", armSrc),
		implOf(t, "MIPS", mipsSrc),
		implOf(t, "X86", x86),
		implOf(t, "MIPS2", mipsSrc),
	}
	before := make([][]cpp.Statement, len(impls))
	for i, im := range impls {
		before[i] = append([]cpp.Statement(nil), im.Stmts...)
	}
	ft, err := Build("getRelocType", impls)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[uintptr]int{}
	for i, row := range ft.Rows {
		p := reflect.ValueOf(row.PerTarget).Pointer()
		if j, ok := owner[p]; ok {
			t.Fatalf("rows %d and %d share a PerTarget map", j, i)
		}
		owner[p] = i
	}
	for i, im := range impls {
		if !reflect.DeepEqual(im.Stmts, before[i]) {
			t.Fatalf("Build changed %s's statements", im.Target)
		}
		var want, got [][]string
		for _, st := range im.Stmts {
			want = append(want, cpp.StatementTokens(st.Text))
		}
		for _, row := range ft.Rows {
			if toks, ok := row.PerTarget[im.Target]; ok {
				got = append(got, toks)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s rows = %q, want its statements %q", im.Target, got, want)
		}
	}
}

func TestJoinTokens(t *testing.T) {
	cases := map[string]string{
		"unsigned Kind = Fixup.getTargetKind();": "unsigned Kind = Fixup.getTargetKind();",
		"if (IsPCRel) {":                         "if (IsPCRel) {",
		"case ARM::fixup_arm_movt_hi16:":         "case ARM::fixup_arm_movt_hi16:",
		"return ELF::R_ARM_ABS32;":               "return ELF::R_ARM_ABS32;",
		"OS << Value;":                           "OS << Value;",
	}
	for src, want := range cases {
		toks, err := cpp.Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := JoinTokens(cpp.TokenTexts(toks)); got != want {
			t.Errorf("JoinTokens(%q) = %q", src, got)
		}
	}
}
