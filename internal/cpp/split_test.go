package cpp

import (
	"reflect"
	"strings"
	"testing"
)

func TestSplitFunctionStatements(t *testing.T) {
	fn := mustParseFunction(t, relocFuncSrc)
	sts := SplitFunction(fn)
	texts := statementTexts(sts)
	want := []string{
		"unsigned ARMELFObjectWriter::getRelocType(MCContext & Ctx, const MCValue & Target, const MCFixup & Fixup, bool IsPCRel) {",
		"unsigned Kind = Fixup.getTargetKind();",
		"MCSymbolRefExpr::VariantKind Modifier = Target.getAccessVariant();",
		"if (IsPCRel) {",
		"switch (Kind) {",
		"case ARM::fixup_arm_movt_hi16:",
		"return ELF::R_ARM_MOVT_PREL;",
		"default:",
		"return ELF::R_ARM_NONE;",
		"}",
		"}",
		"return ELF::R_ARM_ABS32;",
		"}",
	}
	if !reflect.DeepEqual(texts, want) {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(texts, "\n"), strings.Join(want, "\n"))
	}
}

func TestSplitStatementTerminators(t *testing.T) {
	fn := mustParseFunction(t, relocFuncSrc)
	for _, s := range SplitFunction(fn) {
		ok := strings.HasSuffix(s.Text, "{") || strings.HasSuffix(s.Text, ";") ||
			strings.HasSuffix(s.Text, ":") || s.Text == "}"
		if !ok {
			t.Errorf("statement %q does not end with one of {, ;, :", s.Text)
		}
	}
}

func TestNonCloseFiltering(t *testing.T) {
	fn := mustParseFunction(t, relocFuncSrc)
	closers := 0
	for _, s := range SplitFunction(fn) {
		if s.Close != (s.Text == "}") {
			t.Errorf("statement %q has Close = %v", s.Text, s.Close)
		}
		if s.Close {
			closers++
		}
	}
	if closers == 0 {
		t.Error("no closing-brace statement marked Close")
	}
}

func TestSplitIfElse(t *testing.T) {
	fn := mustParseFunction(t, `int f(int a) {
  if (a > 0) {
    g();
  } else {
    h();
  }
  return a;
}`)
	texts := statementTexts(SplitFunction(fn))
	want := []string{
		"int f(int a) {",
		"if (a > 0) {",
		"g();",
		"} else {",
		"h();",
		"}",
		"return a;",
		"}",
	}
	if !reflect.DeepEqual(texts, want) {
		t.Errorf("got %v, want %v", texts, want)
	}
}

func TestSplitDepths(t *testing.T) {
	fn := mustParseFunction(t, relocFuncSrc)
	sts := SplitFunction(fn)
	if sts[0].Depth != 0 {
		t.Errorf("function head depth = %d", sts[0].Depth)
	}
	var caseDepth int
	for _, s := range sts {
		if strings.HasPrefix(s.Text, "case ") {
			caseDepth = s.Depth
		}
	}
	if caseDepth <= sts[1].Depth {
		t.Errorf("case depth %d should exceed top-level statement depth %d", caseDepth, sts[1].Depth)
	}
}

func TestSplitRoundTripParses(t *testing.T) {
	// Joining the statement lines back into text must reparse to an
	// equivalent function.
	fn := mustParseFunction(t, relocFuncSrc)
	joined := strings.Join(statementTexts(SplitFunction(fn)), "\n")
	fn2, err := ParseFunction(joined)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, joined)
	}
	if fn2.FunctionName() != "getRelocType" {
		t.Errorf("round-trip name = %q", fn2.FunctionName())
	}
	if got, want := len(SplitFunction(fn2)), len(SplitFunction(fn)); got != want {
		t.Errorf("statement count after round trip: %d vs %d", got, want)
	}
}

// statementTexts extracts the text lines of a statement sequence.
func statementTexts(sts []Statement) []string {
	out := make([]string, len(sts))
	for i, s := range sts {
		out[i] = s.Text
	}
	return out
}
