package sim

import (
	"testing"

	"vega/internal/bench"
	"vega/internal/compiler"
	"vega/internal/corpus"
)

// TestHardwareLoopSemantics verifies the zero-overhead loop executes the
// body exactly count times and nests correctly.
func TestHardwareLoopSemantics(t *testing.T) {
	tb := compiler.TablesFromSpec(corpus.FindTarget("RI5CY"))
	p := &compiler.Program{
		Arrays: map[string]int{},
		Funcs: []*compiler.Function{{
			Name: "main",
			Body: []compiler.Stmt{
				compiler.Assign{Name: "s", E: compiler.Const{Value: 0}},
				compiler.For{Var: "i", From: compiler.Const{Value: 0}, To: compiler.Const{Value: 10},
					Body: []compiler.Stmt{
						compiler.Assign{Name: "s", E: compiler.Bin{Op: "+", L: compiler.Var{Name: "s"}, R: compiler.Var{Name: "i"}}},
					}},
				compiler.Return{E: compiler.Var{Name: "s"}},
			},
		}},
	}
	obj, err := compiler.Compile(p, tb, 3)
	if err != nil {
		t.Fatal(err)
	}
	var hasLoop bool
	for _, in := range obj.Funcs["main"].Code {
		if in.Kind == compiler.KLoopStart {
			hasLoop = true
		}
	}
	if !hasLoop {
		t.Fatal("expected a hardware loop")
	}
	res, err := RunProgram(p, tb, 3, "main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Return != 45 {
		t.Errorf("sum 0..9 = %d, want 45", res.Return)
	}
}

// TestHardwareLoopEmptyTripCount verifies the skip guard for empty loops.
func TestHardwareLoopEmptyTripCount(t *testing.T) {
	tb := compiler.TablesFromSpec(corpus.FindTarget("RI5CY"))
	p := &compiler.Program{
		Arrays: map[string]int{},
		Funcs: []*compiler.Function{{
			Name:   "main",
			Params: []string{"n"},
			Body: []compiler.Stmt{
				compiler.Assign{Name: "s", E: compiler.Const{Value: 7}},
				compiler.For{Var: "i", From: compiler.Const{Value: 0}, To: compiler.Var{Name: "n"},
					Body: []compiler.Stmt{
						compiler.Assign{Name: "s", E: compiler.Bin{Op: "+", L: compiler.Var{Name: "s"}, R: compiler.Const{Value: 1}}},
					}},
				compiler.Return{E: compiler.Var{Name: "s"}},
			},
		}},
	}
	for n, want := range map[int64]int64{0: 7, 1: 8, 5: 12} {
		res, err := RunProgram(p, tb, 3, "main", n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Return != want {
			t.Errorf("n=%d: got %d, want %d", n, res.Return, want)
		}
	}
}

// TestSIMDRemainderHandling verifies vectorized loops with non-multiple-of
// four trip counts.
func TestSIMDRemainderHandling(t *testing.T) {
	tb := compiler.TablesFromSpec(corpus.FindTarget("RI5CY"))
	const n = 10 // 2 SIMD iterations + 2 scalar remainder
	a := make([]int64, n)
	bv := make([]int64, n)
	for i := range a {
		a[i] = int64(i * 3)
		bv[i] = int64(100 - i)
	}
	p := &compiler.Program{
		Arrays: map[string]int{"a": n, "b": n, "c": n},
		Init:   map[string][]int64{"a": a, "b": bv},
		Funcs: []*compiler.Function{{
			Name: "main",
			Body: []compiler.Stmt{
				compiler.For{Var: "i", From: compiler.Const{Value: 0}, To: compiler.Const{Value: n},
					Body: []compiler.Stmt{
						compiler.Store{Array: "c", Index: compiler.Var{Name: "i"},
							Value: compiler.Bin{Op: "+",
								L: compiler.Load{Array: "a", Index: compiler.Var{Name: "i"}},
								R: compiler.Load{Array: "b", Index: compiler.Var{Name: "i"}}}},
					}},
				compiler.Return{E: compiler.Load{Array: "c", Index: compiler.Const{Value: n - 1}}},
			},
		}},
	}
	obj, err := compiler.Compile(p, tb, 3)
	if err != nil {
		t.Fatal(err)
	}
	var simd bool
	for _, in := range obj.Funcs["main"].Code {
		if in.Kind == compiler.KSIMD {
			simd = true
		}
	}
	if !simd {
		t.Fatal("expected SIMD vectorization")
	}
	res, err := RunProgram(p, tb, 3, "main")
	if err != nil {
		t.Fatal(err)
	}
	want := a[n-1] + bv[n-1]
	if res.Return != want {
		t.Errorf("c[%d] = %d, want %d", n-1, res.Return, want)
	}
}

// TestCrossTargetCycleVariation: the same program costs different cycles
// on different targets (latency tables differ).
func TestCrossTargetCycleVariation(t *testing.T) {
	// At -O0 the per-target ABI shows through: prologues save every
	// callee-saved register, and RISCV (12), Mips (9) and XCore (7)
	// differ.
	w := bench.SPECLike()[0]
	cycles := map[string]int64{}
	for _, tgt := range []string{"RISCV", "XCore", "Mips"} {
		tb := compiler.TablesFromSpec(corpus.FindTarget(tgt))
		res, err := RunProgram(w.Program, tb, 0, w.Entry, w.Args...)
		if err != nil {
			t.Fatal(err)
		}
		cycles[tgt] = res.Cycles
	}
	if cycles["RISCV"] == cycles["XCore"] && cycles["XCore"] == cycles["Mips"] {
		t.Errorf("cycle model insensitive to target: %v", cycles)
	}
}
