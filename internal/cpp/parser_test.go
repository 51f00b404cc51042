package cpp

import (
	"errors"
	"runtime/debug"
	"strings"
	"testing"
)

const relocFuncSrc = `unsigned ARMELFObjectWriter::getRelocType(MCContext &Ctx, const MCValue &Target, const MCFixup &Fixup, bool IsPCRel) const {
  unsigned Kind = Fixup.getTargetKind();
  MCSymbolRefExpr::VariantKind Modifier = Target.getAccessVariant();
  if (IsPCRel) {
    switch (Kind) {
    case ARM::fixup_arm_movt_hi16:
      return ELF::R_ARM_MOVT_PREL;
    default:
      return ELF::R_ARM_NONE;
    }
  }
  return ELF::R_ARM_ABS32;
}`

func mustParseFunction(t *testing.T, src string) *Node {
	t.Helper()
	fn, err := ParseFunction(src)
	if err != nil {
		t.Fatalf("ParseFunction: %v", err)
	}
	return fn
}

func TestParseFunctionShape(t *testing.T) {
	fn := mustParseFunction(t, relocFuncSrc)
	if fn.Kind != KindFunction {
		t.Fatalf("kind = %v", fn.Kind)
	}
	if fn.Value != "ARMELFObjectWriter::getRelocType" {
		t.Errorf("name = %q", fn.Value)
	}
	if fn.FunctionName() != "getRelocType" {
		t.Errorf("FunctionName = %q", fn.FunctionName())
	}
	if got := fn.Children[0].Value; got != "unsigned" {
		t.Errorf("return type = %q", got)
	}
	params := fn.Children[1]
	if len(params.Children) != 4 {
		t.Fatalf("params = %d", len(params.Children))
	}
	if params.Children[3].Value != "IsPCRel" || params.Children[3].Children[0].Value != "bool" {
		t.Errorf("param 3 = %v", params.Children[3])
	}
	body := fn.Children[2]
	if len(body.Children) != 4 {
		t.Fatalf("body statements = %d, want 4", len(body.Children))
	}
	if body.Children[0].Kind != KindDecl || body.Children[2].Kind != KindIf {
		t.Errorf("statement kinds: %v, %v", body.Children[0].Kind, body.Children[2].Kind)
	}
}

func TestParseDeclWithQualifiedType(t *testing.T) {
	st, err := ParseStatement(`MCSymbolRefExpr::VariantKind Modifier = Target.getAccessVariant();`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindDecl {
		t.Fatalf("kind = %v", st.Kind)
	}
	if st.Children[0].Value != "MCSymbolRefExpr::VariantKind" {
		t.Errorf("type = %q", st.Children[0].Value)
	}
}

func TestParseDeclVsExprStmt(t *testing.T) {
	decl, err := ParseStatement(`unsigned Kind = 0;`)
	if err != nil || decl.Kind != KindDecl {
		t.Errorf("decl: %v %v", decl, err)
	}
	expr, err := ParseStatement(`Kind = f(x);`)
	if err != nil || expr.Kind != KindExprStmt {
		t.Errorf("expr stmt: %v %v", expr, err)
	}
	if expr.Children[0].Kind != KindAssign {
		t.Errorf("assignment: %v", expr.Children[0].Kind)
	}
	call, err := ParseStatement(`report_fatal_error("bad");`)
	if err != nil || call.Kind != KindExprStmt || call.Children[0].Kind != KindCall {
		t.Errorf("call stmt: %v %v", call, err)
	}
}

func TestParsePointerDecl(t *testing.T) {
	st, err := ParseStatement(`const MCExpr *Expr = Fixup.getValue();`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindDecl || st.Children[0].Value != "const MCExpr *" {
		t.Errorf("got %v", st)
	}
}

func TestParseSwitchWithCases(t *testing.T) {
	st, err := ParseStatement(`switch (Kind) {
  case A::x:
    return 1;
  case A::y:
  case A::z:
    break;
  default:
    return 0;
  }`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindSwitch {
		t.Fatalf("kind = %v", st.Kind)
	}
	body := st.Children[1]
	if len(body.Children) != 4 {
		t.Fatalf("arms = %d, want 4 (3 cases + default)", len(body.Children))
	}
	// Fall-through case A::y has no statements.
	if len(body.Children[1].Children) != 1 {
		t.Errorf("fall-through case should have only its label, got %d children", len(body.Children[1].Children))
	}
	if body.Children[3].Kind != KindDefault {
		t.Errorf("last arm = %v", body.Children[3].Kind)
	}
}

func TestParseIfElseChain(t *testing.T) {
	st, err := ParseStatement(`if (a == 1) { f(); } else if (a == 2) { g(); } else { h(); }`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindIf || len(st.Children) != 3 {
		t.Fatalf("if shape: %v", st)
	}
	if st.Children[2].Kind != KindIf {
		t.Errorf("else-if chain not nested: %v", st.Children[2].Kind)
	}
}

func TestParseForWhileDo(t *testing.T) {
	for _, src := range []string{
		`for (unsigned i = 0; i < n; i++) { total += i; }`,
		`while (x > 0) { x--; }`,
		`do { x++; } while (x < 10);`,
	} {
		if _, err := ParseStatement(src); err != nil {
			t.Errorf("ParseStatement(%q): %v", src, err)
		}
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr(`a + b * c`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindBinary || e.Value != "+" {
		t.Fatalf("root = %v", e)
	}
	if e.Children[1].Kind != KindBinary || e.Children[1].Value != "*" {
		t.Errorf("rhs = %v", e.Children[1])
	}
}

func TestParseShiftVsTemplate(t *testing.T) {
	e, err := ParseExpr(`Value << 16 | Value >> 8`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Value != "|" {
		t.Errorf("root op = %q", e.Value)
	}
	st, err := ParseStatement(`SmallVector<int, 4> Ops;`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindDecl || st.Children[0].Value != "SmallVector<int, 4>" {
		t.Errorf("template decl: %v", st)
	}
	// "a < b" must not be mistaken for template args.
	cmp, err := ParseExpr(`a < b`)
	if err != nil || cmp.Kind != KindBinary || cmp.Value != "<" {
		t.Errorf("comparison: %v %v", cmp, err)
	}
}

func TestParseCasts(t *testing.T) {
	e, err := ParseExpr(`static_cast<unsigned>(Modifier)`)
	if err != nil || e.Kind != KindCast || e.Value != "static_cast" {
		t.Fatalf("static_cast: %v %v", e, err)
	}
	e2, err := ParseExpr(`(unsigned)x`)
	if err != nil || e2.Kind != KindCast {
		t.Fatalf("C cast: %v %v", e2, err)
	}
	e3, err := ParseExpr(`unsigned(x + 1)`)
	if err != nil || e3.Kind != KindCast {
		t.Fatalf("functional cast: %v %v", e3, err)
	}
}

func TestParseMemberChains(t *testing.T) {
	e, err := ParseExpr(`MI.getOperand(0).getReg()`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindCall {
		t.Fatalf("root = %v", e.Kind)
	}
	if e.Children[0].Kind != KindMember {
		t.Errorf("callee = %v", e.Children[0].Kind)
	}
}

func TestParseTernaryAndUnary(t *testing.T) {
	e, err := ParseExpr(`IsPCRel ? ELF::R_X_PREL : ELF::R_X_ABS`)
	if err != nil || e.Kind != KindTernary {
		t.Fatalf("ternary: %v %v", e, err)
	}
	u, err := ParseExpr(`!Target.isAbsolute()`)
	if err != nil || u.Kind != KindUnary || u.Value != "!" {
		t.Fatalf("unary: %v %v", u, err)
	}
}

func TestParseFileMultipleFunctions(t *testing.T) {
	src := relocFuncSrc + "\n" + `bool X::isValid(int a) { return a > 0; }`
	file, err := ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Children) != 2 {
		t.Fatalf("functions = %d", len(file.Children))
	}
	if file.Children[1].FunctionName() != "isValid" {
		t.Errorf("second function = %q", file.Children[1].FunctionName())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`if (x { }`,
		`switch (x) { foo; }`,
		`return 1 +;`,
		`int = 4;`,
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q): expected error", src)
		}
	}
}

func TestNodeHelpers(t *testing.T) {
	fn := mustParseFunction(t, relocFuncSrc)
	clone := fn.Clone()
	if !fn.Equal(clone) {
		t.Error("clone not equal")
	}
	if fn.Hash() != clone.Hash() {
		t.Error("clone hash differs")
	}
	clone.Children[2].Children[0].Value = "mutated"
	if fn.Equal(clone) {
		t.Error("mutated clone still equal")
	}
	if fn.Size() < 10 {
		t.Errorf("size = %d, too small", fn.Size())
	}
	if fn.Height() < 4 {
		t.Errorf("height = %d, too small", fn.Height())
	}
	ids := fn.Idents()
	found := false
	for _, id := range ids {
		if id == "fixup_arm_movt_hi16" {
			found = true
		}
	}
	if !found {
		t.Errorf("Idents missing qualified components: %v", ids)
	}
}

func TestPostOrderAndLeaves(t *testing.T) {
	e, _ := ParseExpr("a + b")
	post := e.PostOrder(nil)
	if len(post) != 3 || post[2] != e {
		t.Errorf("post-order: %v", post)
	}
	leaves := e.Leaves()
	if len(leaves) != 2 || leaves[0].Value != "a" || leaves[1].Value != "b" {
		t.Errorf("leaves: %v", leaves)
	}
}

func TestParseRoundTrip(t *testing.T) {
	fn := mustParseFunction(t, relocFuncSrc)
	printed := Print(fn)
	fn2, err := ParseFunction(printed)
	if err != nil {
		t.Fatalf("reparse failed: %v\nprinted:\n%s", err, printed)
	}
	if !fn.Equal(fn2) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", Print(fn), Print(fn2))
	}
}

func TestPrintContainsExpectedLines(t *testing.T) {
	fn := mustParseFunction(t, relocFuncSrc)
	printed := Print(fn)
	for _, want := range []string{
		"unsigned Kind = Fixup.getTargetKind();",
		"case ARM::fixup_arm_movt_hi16:",
		"return ELF::R_ARM_MOVT_PREL;",
		"switch (Kind) {",
	} {
		if !strings.Contains(printed, want) {
			t.Errorf("printed output missing %q:\n%s", want, printed)
		}
	}
}

// TestParseRejectsDeepNesting feeds each recursive construct nested far
// past maxDepth: it must come back as a *SyntaxError, not exhaust the
// stack. The stack is capped at 64 MB for the test, so a parser that
// recursed without bound fails here (as a fatal overflow) well before
// the default 1 GB limit, which real inputs a megabyte long would reach.
func TestParseRejectsDeepNesting(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	const n = 100_000
	for name, src := range map[string]string{
		"parens":      "int f() { return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }",
		"unary":       "int f() { return " + strings.Repeat("-", n) + "1; }",
		"assignments": "int f() { " + strings.Repeat("x = ", n) + "1; }",
		"ternaries":   "int f() { return " + strings.Repeat("c ? 1 : ", n) + "0; }",
		"blocks":      "int f() { " + strings.Repeat("{", n) + strings.Repeat("}", n) + " }",
		"ifs":         "int f() { " + strings.Repeat("if (c) ", n) + "return 1; }",
	} {
		_, err := ParseFunction(src)
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "nesting deeper") {
			t.Errorf("%s nested %d deep: got %v, want a nesting SyntaxError", name, n, err)
		}
	}
	// Nesting within the cap still parses.
	src := "int f() { return " + strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100) + "; }"
	if _, err := ParseFunction(src); err != nil {
		t.Errorf("100 nested parentheses: %v", err)
	}
}
