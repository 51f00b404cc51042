package generate

import (
	"fmt"
	"strings"
	"testing"
)

func sampleFunction() *Function {
	return &Function{
		Name: "getRelocType", Module: "EMI", Target: "RISCV",
		Statements: []Statement{
			{Row: 0, Text: "unsigned W::getRelocType(unsigned Kind, bool IsPCRel) {", Score: 1.0},
			{Row: 1, Text: "unsigned K = Fixup.getTargetKind();", Score: 1.0},
			{Row: 2, Text: "MCSymbolRefExpr::VariantKind M = Target.getAccessVariant();", Score: 0.23},
			{Row: 3, Text: "return K;", Score: 0.8},
			{Row: 4, Text: "}", Score: 1.0},
		},
	}
}

func TestKeptFiltersThreshold(t *testing.T) {
	f := sampleFunction()
	if f.Statements[2].Kept() {
		t.Error("0.23 statement must be dropped")
	}
	if !f.Statements[3].Kept() {
		t.Error("0.8 statement must be kept")
	}
	absent := Statement{Absent: true, Score: 1}
	if absent.Kept() {
		t.Error("absent statements are never kept")
	}
}

func TestRenderSkipsDropped(t *testing.T) {
	f := sampleFunction()
	out := f.Render()
	if strings.Contains(out, "VariantKind") {
		t.Errorf("dropped statement rendered:\n%s", out)
	}
	if !strings.Contains(out, "return K;") {
		t.Errorf("kept statement missing:\n%s", out)
	}
}

func TestRenderAnnotatedShowsEverything(t *testing.T) {
	f := sampleFunction()
	out := f.RenderAnnotated()
	if !strings.Contains(out, "0.23 | MCSymbolRefExpr") {
		t.Errorf("annotation missing:\n%s", out)
	}
	f.Statements = append(f.Statements, Statement{Absent: true, Score: 0})
	if !strings.Contains(f.RenderAnnotated(), "<absent>") {
		t.Error("absent marker missing")
	}
}

func TestFunctionConfidenceIsFirstLine(t *testing.T) {
	f := sampleFunction()
	if f.Confidence() != 1.0 {
		t.Errorf("confidence = %f", f.Confidence())
	}
	f.Statements[0].Score = 0.4
	if f.Generated() {
		t.Error("sub-threshold head means the function is not generated")
	}
	var empty Function
	if empty.Confidence() != 0 || empty.Generated() {
		t.Error("empty function must have zero confidence")
	}
}

func TestParseRendered(t *testing.T) {
	f := sampleFunction()
	fn, err := f.Parse()
	if err != nil {
		t.Fatalf("rendered function does not parse: %v\n%s", err, f.Render())
	}
	if fn.FunctionName() != "getRelocType" {
		t.Errorf("name = %q", fn.FunctionName())
	}
	var bad Function
	if _, err := bad.Parse(); err == nil {
		t.Error("empty function must not parse")
	}
}

func TestBackendByModuleAndLookup(t *testing.T) {
	b := &Backend{
		Target: "RISCV",
		Functions: []*Function{
			{Name: "a", Module: "SEL"},
			{Name: "b", Module: "SEL"},
			{Name: "c", Module: "EMI"},
		},
	}
	by := b.ByModule()
	if len(by["SEL"]) != 2 || len(by["EMI"]) != 1 {
		t.Errorf("ByModule = %v", by)
	}
	if b.Function("c") == nil || b.Function("zz") != nil {
		t.Error("Function lookup broken")
	}
}

func TestRenderRepairsBraces(t *testing.T) {
	f := &Function{
		Name: "f", Module: "SEL", Target: "X",
		Statements: []Statement{
			{Row: 0, Text: "int f(int a) {", Score: 1},
			{Row: 1, Text: "if (a > 0) {", Score: 0.2}, // dropped header
			{Row: 2, Text: "a = a + 1;", Score: 1},
			{Row: 3, Text: "}", Score: 1}, // orphaned closer
			{Row: 4, Text: "return a;", Score: 1},
			{Row: 5, Text: "}", Score: 1},
		},
	}
	if _, err := f.Parse(); err != nil {
		t.Fatalf("repaired render does not parse: %v\n%s", err, f.Render())
	}
}

func TestRenderRepairsElse(t *testing.T) {
	f := &Function{
		Name: "f", Module: "SEL", Target: "X",
		Statements: []Statement{
			{Row: 0, Text: "int f(int a) {", Score: 1},
			{Row: 1, Text: "if (a > 0) {", Score: 0.1}, // dropped
			{Row: 2, Text: "} else {", Score: 1},       // must be dropped too
			{Row: 3, Text: "a = 2;", Score: 1},
			{Row: 4, Text: "}", Score: 1},
			{Row: 5, Text: "return a;", Score: 1},
			{Row: 6, Text: "}", Score: 1},
		},
	}
	if _, err := f.Parse(); err != nil {
		t.Fatalf("else repair failed: %v\n%s", err, f.Render())
	}
}

func TestRenderClosesUnclosedBlocks(t *testing.T) {
	f := &Function{
		Name: "f", Module: "SEL", Target: "X",
		Statements: []Statement{
			{Row: 0, Text: "int f(int a) {", Score: 1},
			{Row: 1, Text: "if (a > 0) {", Score: 1},
			{Row: 2, Text: "a = 1;", Score: 1},
			{Row: 3, Text: "}", Score: 0.1}, // dropped closer
			{Row: 4, Text: "}", Score: 0.1}, // dropped closer
		},
	}
	if _, err := f.Parse(); err != nil {
		t.Fatalf("unclosed-block repair failed: %v\n%s", err, f.Render())
	}
}

func TestFailedFunctionIsZeroConfidence(t *testing.T) {
	f := FailedFunction("getRelocType", "EMI", "RISCV", fmt.Errorf("recovered panic: boom"))
	if !f.Failed() {
		t.Fatal("Failed() = false")
	}
	if f.Confidence() != 0 || f.Generated() {
		t.Errorf("failed function must be zero-confidence and ungenerated: %+v", f)
	}
	if f.Render() != "" {
		t.Errorf("failed function rendered source: %q", f.Render())
	}
	if !strings.Contains(f.RenderAnnotated(), "generation failed") {
		t.Errorf("annotation hides the failure: %q", f.RenderAnnotated())
	}
}
