package repair

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vega/internal/corpus"
	"vega/internal/cpp"
	"vega/internal/eval"
	"vega/internal/generate"
	"vega/internal/obs"
)

// ---- fixture --------------------------------------------------------------

var (
	fixOnce sync.Once
	fixC    *corpus.Stream
)

func refBackend(t *testing.T, target string) *corpus.Backend {
	t.Helper()
	fixOnce.Do(func() { fixC = corpus.NewStream(corpus.Targets()) })
	b, err := fixC.ReferenceBackend(target)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// selfFunction rebuilds a generated function from the reference itself —
// a perfect generation, like eval's self-evaluation fixture.
func selfFunction(t *testing.T, b *corpus.Backend, name string) *generate.Function {
	t.Helper()
	ref := b.Funcs[name]
	if ref == nil {
		t.Fatalf("%s: no reference %s", b.Target.Name, name)
	}
	fn := &generate.Function{Name: name, Module: moduleOf(name), Target: b.Target.Name}
	for i, st := range cpp.SplitFunction(ref) {
		fn.Statements = append(fn.Statements, generate.Statement{Row: i, Text: st.Text, Score: 1})
	}
	return fn
}

func moduleOf(name string) string {
	for _, f := range corpus.AllFuncs() {
		if f.Name == name {
			return string(f.Module)
		}
	}
	return ""
}

// corrupt replaces the first statement containing marker with text,
// returning the corrupted row and the original text.
func corrupt(t *testing.T, fn *generate.Function, marker, text string) (row int, orig string) {
	t.Helper()
	for i := range fn.Statements {
		if strings.Contains(fn.Statements[i].Text, marker) {
			orig = fn.Statements[i].Text
			fn.Statements[i].Text = text
			return fn.Statements[i].Row, orig
		}
	}
	t.Fatalf("%s: no statement contains %q", fn.Name, marker)
	return 0, ""
}

// stubDecoder returns canned candidates per row and records calls.
type stubDecoder struct {
	cands map[int][]generate.Statement
	calls int
	panic bool
}

func (d *stubDecoder) Candidates(row int, banned []string, forcePresent bool) []generate.Statement {
	d.calls++
	if d.panic {
		panic("stub decoder explosion")
	}
	return d.cands[row]
}

// ---- oracle ---------------------------------------------------------------

func TestOracleSelfVerifyPasses(t *testing.T) {
	b := refBackend(t, "RISCV")
	for _, name := range []string{"isLegalICmpImmediate", "getUncondBranchOpcode", "getRelocType"} {
		v := (&Oracle{Ref: b}).Verify(selfFunction(t, b, name))
		if v.NoOracle || !v.Pass || v.CE != nil {
			t.Errorf("%s: self verify = %+v, want clean pass", name, v)
		}
		if v.Passed != v.Total || v.Total == 0 {
			t.Errorf("%s: passed %d/%d, want full nonzero grid", name, v.Passed, v.Total)
		}
	}
}

func TestOracleNoOracle(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	if v := (&Oracle{}).Verify(fn); !v.NoOracle {
		t.Errorf("nil-ref oracle: %+v, want NoOracle", v)
	}
	var nilOracle *Oracle
	if v := nilOracle.Verify(fn); !v.NoOracle {
		t.Errorf("nil oracle: %+v, want NoOracle", v)
	}
	ghost := &generate.Function{Name: "noSuchInterfaceFunc", Statements: fn.Statements}
	if v := (&Oracle{Ref: b}).Verify(ghost); !v.NoOracle {
		t.Errorf("unknown function: %+v, want NoOracle", v)
	}
}

func TestOracleUnparseable(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := &generate.Function{Name: "isLegalICmpImmediate", Target: "RISCV"}
	v := (&Oracle{Ref: b}).Verify(fn)
	if v.Pass || v.CE == nil || !strings.Contains(v.CE.Got, "unparseable") {
		t.Errorf("empty function verdict = %+v, want unparseable counterexample", v)
	}
}

func TestOracleCounterexampleAndSuspects(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	row, _ := corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")

	v := (&Oracle{Ref: b}).Verify(fn)
	if v.Pass {
		t.Fatal("corrupted function passed verification")
	}
	if v.CE == nil || v.CE.Input == "" || v.CE.Got == v.CE.Want {
		t.Fatalf("counterexample = %+v, want concrete diverging input", v.CE)
	}
	if v.Passed == 0 || v.Passed >= v.Total {
		t.Errorf("passed %d/%d, want a partial score", v.Passed, v.Total)
	}
	found := false
	for _, s := range v.Suspects {
		if s.Row == row {
			found = true
		}
	}
	if !found {
		t.Errorf("suspects %+v do not implicate corrupted row %d", v.Suspects, row)
	}
	if v.CE.Row != v.Suspects[0].Row {
		t.Errorf("counterexample row %d != strongest suspect %d", v.CE.Row, v.Suspects[0].Row)
	}
}

// TestOracleAgreesWithEval holds repair's verdict to eval's pass@1 on
// the three evaluation targets: every implemented function, generated
// perfectly and with one corrupted statement, must verify exactly when
// EvaluateFunction counts it accurate.
func TestOracleAgreesWithEval(t *testing.T) {
	for _, target := range []string{"RISCV", "RI5CY", "XCore"} {
		b := refBackend(t, target)
		o := &Oracle{Ref: b}
		passes, fails := 0, 0
		for _, f := range corpus.AllFuncs() {
			ref := b.Funcs[f.Name]
			if ref == nil {
				continue
			}
			bad := selfFunction(t, b, f.Name)
			marker, text := "return ", "  return 0;"
			if !strings.Contains(stmtTexts(bad), marker) {
				marker, text = ";", "  return;"
			}
			corrupt(t, bad, marker, text)
			for _, fn := range []*generate.Function{selfFunction(t, b, f.Name), bad} {
				v := o.Verify(fn)
				acc := eval.NewUniverse(b).EvaluateFunction(fn, ref, nil).Accurate
				if v.NoOracle || v.Pass != acc {
					t.Errorf("%s/%s: verify %+v, eval accurate=%v", target, f.Name, v, acc)
				}
				if acc {
					passes++
				} else {
					fails++
				}
			}
		}
		if passes == 0 || fails == 0 {
			t.Errorf("%s: %d passing, %d failing functions, want both kinds", target, passes, fails)
		}
	}
}

// stmtTexts joins a function's statement texts.
func stmtTexts(fn *generate.Function) string {
	var b strings.Builder
	for _, s := range fn.Statements {
		b.WriteString(s.Text)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestOracleCachedReferenceMatchesFresh verifies failing functions from 4
// goroutines sharing one Oracle, so most calls align against its cached
// reference statements; every verdict must equal a fresh Oracle's.
func TestOracleCachedReferenceMatchesFresh(t *testing.T) {
	b := refBackend(t, "RISCV")
	immFn := selfFunction(t, b, "isLegalICmpImmediate")
	corrupt(t, immFn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")
	relocFn := selfFunction(t, b, "getRelocType")
	corrupt(t, relocFn, "return ELF::R_RISCV_HI20;", "return ELF::R_RISCV_LO12;")
	fns := []*generate.Function{immFn, relocFn}
	want := make([]Verdict, len(fns))
	for i, fn := range fns {
		if want[i] = (&Oracle{Ref: b}).Verify(fn); want[i].Pass {
			t.Fatalf("%s: corrupted function passed", fn.Name)
		}
	}
	shared := &Oracle{Ref: b}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, fn := range fns {
					if got := shared.Verify(fn); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s: cached verdict %+v, fresh %+v", fn.Name, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// ---- engine ---------------------------------------------------------------

func TestEngineVerifyPassesCleanFunction(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	dec := &stubDecoder{}
	NewEngine(&Oracle{Ref: b}, nil).Run(context.Background(), fn, dec, DefaultRounds)
	if fn.Verify == nil || fn.Verify.Status != generate.VerifyPassed {
		t.Fatalf("verify = %+v, want VerifyPassed", fn.Verify)
	}
	if fn.Verify.Rounds != 0 || dec.calls != 0 {
		t.Errorf("rounds=%d decoderCalls=%d, want no repair work on a passing function",
			fn.Verify.Rounds, dec.calls)
	}
}

func TestEngineRepairsCorruptedStatement(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	row, orig := corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")

	dec := &stubDecoder{cands: map[int][]generate.Statement{
		row: {
			{Row: row, Text: "  return true;", Score: 1},
			{Row: row, Text: orig, Score: 1},
		},
	}}
	NewEngine(&Oracle{Ref: b}, nil).Run(context.Background(), fn, dec, DefaultRounds)

	v := fn.Verify
	if v == nil || v.Status != generate.VerifyRepaired {
		t.Fatalf("verify = %+v, want VerifyRepaired", v)
	}
	if v.Rounds < 1 || v.Counterexample != "" {
		t.Errorf("rounds=%d ce=%q, want >=1 round and cleared counterexample", v.Rounds, v.Counterexample)
	}
	if len(v.RepairedRows) != 1 || v.RepairedRows[0] != row {
		t.Errorf("repaired rows %v, want [%d]", v.RepairedRows, row)
	}
	idx := rowIndex(fn.Statements, row)
	if fn.Statements[idx].Text != orig {
		t.Errorf("row %d text %q, want restored %q", row, fn.Statements[idx].Text, orig)
	}
	// The repaired function verifies clean.
	if after := (&Oracle{Ref: b}).Verify(fn); !after.Pass {
		t.Errorf("repaired function still fails: %+v", after)
	}
}

func TestEngineFailureRevertsToOriginal(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	row, _ := corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")
	before := append([]generate.Statement(nil), fn.Statements...)

	dec := &stubDecoder{cands: map[int][]generate.Statement{
		row: {{Row: row, Text: "  return false;", Score: 1}},
	}}
	NewEngine(&Oracle{Ref: b}, nil).Run(context.Background(), fn, dec, DefaultRounds)

	v := fn.Verify
	if v == nil || v.Status != generate.VerifyFailed {
		t.Fatalf("verify = %+v, want VerifyFailed", v)
	}
	if v.Counterexample == "" {
		t.Error("failed verification without a counterexample")
	}
	if len(fn.Statements) != len(before) {
		t.Fatalf("statement count changed: %d != %d", len(fn.Statements), len(before))
	}
	for i := range before {
		if fn.Statements[i] != before[i] {
			t.Errorf("row %d mutated after failed repair: %+v != %+v", i, fn.Statements[i], before[i])
		}
	}
}

func TestEngineVerifyOnlySkipsRepair(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	row, orig := corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")

	dec := &stubDecoder{cands: map[int][]generate.Statement{
		row: {{Row: row, Text: orig, Score: 1}},
	}}
	// rounds 0 is the degrade ladder's skip-repair rung: status and
	// counterexample land, but no candidate is ever tried.
	NewEngine(&Oracle{Ref: b}, nil).Run(context.Background(), fn, dec, 0)
	v := fn.Verify
	if v == nil || v.Status != generate.VerifyFailed || v.Rounds != 0 {
		t.Fatalf("verify = %+v, want VerifyFailed with 0 rounds", v)
	}
	if dec.calls != 0 {
		t.Errorf("decoder called %d times under skip-repair", dec.calls)
	}
}

func TestEngineNoOracle(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	NewEngine(&Oracle{}, nil).Run(context.Background(), fn, &stubDecoder{}, DefaultRounds)
	if fn.Verify == nil || fn.Verify.Status != generate.VerifyNoOracle {
		t.Fatalf("verify = %+v, want VerifyNoOracle", fn.Verify)
	}
}

func TestEngineContextCancellation(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	row, orig := corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")
	dec := &stubDecoder{cands: map[int][]generate.Statement{
		row: {{Row: row, Text: orig, Score: 1}},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	NewEngine(&Oracle{Ref: b}, nil).Run(ctx, fn, dec, DefaultRounds)
	if fn.Verify == nil || fn.Verify.Status != generate.VerifyFailed {
		t.Fatalf("verify = %+v, want VerifyFailed under cancelled context", fn.Verify)
	}
	if dec.calls != 0 {
		t.Errorf("decoder called %d times under cancelled context", dec.calls)
	}
}

func TestEnginePanicIsolation(t *testing.T) {
	b := refBackend(t, "RISCV")
	fn := selfFunction(t, b, "isLegalICmpImmediate")
	corrupt(t, fn, "return Imm >=", "  return Imm >= -16 && Imm < 16;")
	before := append([]generate.Statement(nil), fn.Statements...)

	o := obs.New(nil)
	eng := NewEngine(&Oracle{Ref: b}, o)
	eng.Run(context.Background(), fn, &stubDecoder{panic: true}, DefaultRounds) // must not crash the caller
	if fn.Verify == nil || fn.Verify.Status != generate.VerifyFailed {
		t.Fatalf("verify = %+v, want VerifyFailed after decoder panic", fn.Verify)
	}
	if got := eng.m.panics.Value(); got < 1 {
		t.Errorf("repair.verify_panics = %v, want >= 1", got)
	}
	for i := range before {
		if fn.Statements[i] != before[i] {
			t.Errorf("row %d mutated after panicked repair", i)
		}
	}
}

func TestEngineNilAndFailedFunctions(t *testing.T) {
	eng := NewEngine(&Oracle{}, nil)
	eng.Run(context.Background(), nil, nil, DefaultRounds) // must not crash
	failed := &generate.Function{Name: "x", Err: "decode exploded"}
	eng.Run(context.Background(), failed, nil, DefaultRounds)
	if failed.Verify != nil {
		t.Errorf("failed function got verification %+v, want none", failed.Verify)
	}
	var nilEngine *Engine
	nilEngine.Run(context.Background(), failed, nil, DefaultRounds) // nil engine is inert
}
