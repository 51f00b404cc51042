package sim

import (
	"strings"
	"testing"

	"vega/internal/bench"
	"vega/internal/compiler"
	"vega/internal/corpus"
)

func run(t *testing.T, w bench.Workload, target string, opt int) Result {
	t.Helper()
	tb := compiler.TablesFromSpec(corpus.FindTarget(target))
	res, err := RunProgram(w.Program, tb, opt, w.Entry, w.Args...)
	if err != nil {
		t.Fatalf("%s O%d: %v", w.Name, opt, err)
	}
	return res
}

func TestSimpleSumProgram(t *testing.T) {
	p := &compiler.Program{
		Arrays: map[string]int{"a": 4},
		Init:   map[string][]int64{"a": {10, 20, 30, 40}},
		Funcs: []*compiler.Function{{
			Name: "main",
			Body: []compiler.Stmt{
				compiler.Assign{Name: "s", E: compiler.Const{Value: 0}},
				compiler.For{Var: "i", From: compiler.Const{Value: 0}, To: compiler.Const{Value: 4},
					Body: []compiler.Stmt{
						compiler.Assign{Name: "s", E: compiler.Bin{Op: "+", L: compiler.Var{Name: "s"}, R: compiler.Load{Array: "a", Index: compiler.Var{Name: "i"}}}},
					}},
				compiler.Return{E: compiler.Var{Name: "s"}},
			},
		}},
	}
	w := bench.Workload{Name: "sum", Program: p, Entry: "main"}
	for _, target := range []string{"RISCV", "RI5CY", "XCore", "Mips"} {
		for _, opt := range []int{0, 3} {
			res := run(t, w, target, opt)
			if res.Return != 100 {
				t.Errorf("%s O%d: sum = %d, want 100", target, opt, res.Return)
			}
		}
	}
}

func TestCallsAndRecursionDepth(t *testing.T) {
	p := &compiler.Program{
		Arrays: map[string]int{},
		Funcs: []*compiler.Function{
			{Name: "double", Params: []string{"x"},
				Body: []compiler.Stmt{compiler.Return{E: compiler.Bin{Op: "*", L: compiler.Var{Name: "x"}, R: compiler.Const{Value: 2}}}}},
			{Name: "main",
				Body: []compiler.Stmt{
					compiler.Assign{Name: "r", E: compiler.CallExpr{Name: "double", Args: []compiler.Expr{compiler.CallExpr{Name: "double", Args: []compiler.Expr{compiler.Const{Value: 5}}}}}},
					compiler.Return{E: compiler.Var{Name: "r"}},
				}},
		},
	}
	w := bench.Workload{Name: "calls", Program: p, Entry: "main"}
	for _, opt := range []int{0, 3} {
		res := run(t, w, "RISCV", opt)
		if res.Return != 20 {
			t.Errorf("O%d: nested call = %d, want 20", opt, res.Return)
		}
	}
}

// The core Fig. 10 invariant: -O0 and -O3 agree functionally on every
// workload of every suite, and -O3 is faster.
func TestSuitesFunctionalAndFaster(t *testing.T) {
	for _, target := range []string{"RISCV", "RI5CY", "XCore"} {
		suite := bench.SuiteFor(target)
		if len(suite) == 0 {
			t.Fatalf("no suite for %s", target)
		}
		for _, w := range suite {
			r0 := run(t, w, target, 0)
			r3 := run(t, w, target, 3)
			if r0.Return != r3.Return {
				t.Errorf("%s %s: O0=%d O3=%d", target, w.Name, r0.Return, r3.Return)
			}
			if r3.Cycles >= r0.Cycles {
				t.Errorf("%s %s: O3 (%d cycles) not faster than O0 (%d)", target, w.Name, r3.Cycles, r0.Cycles)
			}
		}
	}
}

func TestSuiteSizesMatchPaper(t *testing.T) {
	if n := len(bench.SPECLike()); n != 28 {
		t.Errorf("SPEC-like = %d, want 28", n)
	}
	if n := len(bench.PULPLike()); n != 69 {
		t.Errorf("PULP-like = %d, want 69", n)
	}
	if n := len(bench.EmbenchLike()); n != 22 {
		t.Errorf("Embench-like = %d, want 22", n)
	}
}

func TestHardwareLoopSpeedsUpRI5CY(t *testing.T) {
	// The same DSP kernel must get a bigger O3 speedup on RI5CY (hardware
	// loops + SIMD) than on plain RISCV.
	w := bench.PULPLike()[1] // vecadd
	speedup := func(target string) float64 {
		r0 := run(t, w, target, 0)
		r3 := run(t, w, target, 3)
		return float64(r0.Cycles) / float64(r3.Cycles)
	}
	if sRI, sRV := speedup("RI5CY"), speedup("RISCV"); sRI <= sRV {
		t.Errorf("RI5CY speedup %.2f should beat RISCV %.2f on DSP kernels", sRI, sRV)
	}
}

func TestDeterministicCycles(t *testing.T) {
	w := bench.EmbenchLike()[0]
	a := run(t, w, "XCore", 3)
	b := run(t, w, "XCore", 3)
	if a.Cycles != b.Cycles || a.Return != b.Return {
		t.Error("simulation not deterministic")
	}
}

func TestOutOfRangeIndexFails(t *testing.T) {
	p := &compiler.Program{
		Arrays: map[string]int{"a": 2},
		Funcs: []*compiler.Function{{
			Name: "main",
			Body: []compiler.Stmt{compiler.Return{E: compiler.Load{Array: "a", Index: compiler.Const{Value: 9}}}},
		}},
	}
	tb := compiler.TablesFromSpec(corpus.FindTarget("RISCV"))
	_, err := RunProgram(p, tb, 0, "main")
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v, want an out-of-range error", err)
	}
}
