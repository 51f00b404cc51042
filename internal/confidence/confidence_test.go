package confidence

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestStatementPureCommon(t *testing.T) {
	// T_k^var empty: CS = has(S_k).
	if got := Statement(5, 5, nil, true); !almost(got, 1) {
		t.Errorf("pure common present = %f, want 1", got)
	}
	if got := Statement(5, 5, nil, false); got != 0 {
		t.Errorf("pure common absent = %f, want 0", got)
	}
}

func TestStatementWithPlaceholder(t *testing.T) {
	// "case SV5:" with 3 tokens, 2 common, one placeholder with N=66.
	got := Statement(2, 3, []int{66}, true)
	want := 2.0/3.0 + 1.0/(3.0*66.0)
	if !almost(got, want) {
		t.Errorf("got %f, want %f", got, want)
	}
	if got >= 1 {
		t.Errorf("placeholder statement must score below 1, got %f", got)
	}
}

func TestStatementFewerChoicesScoreHigher(t *testing.T) {
	few := Statement(2, 3, []int{2}, true)
	many := Statement(2, 3, []int{100}, true)
	if few <= many {
		t.Errorf("N=2 (%f) should beat N=100 (%f)", few, many)
	}
}

func TestStatementZeroChoices(t *testing.T) {
	got := Statement(2, 3, []int{0}, true)
	if !almost(got, 2.0/3.0) {
		t.Errorf("zero candidates must add nothing: %f", got)
	}
}

func TestStatementClamped(t *testing.T) {
	got := Statement(10, 3, []int{1}, true) // degenerate inputs
	if got > 1 {
		t.Errorf("score above 1: %f", got)
	}
	if Statement(1, 0, nil, true) != 0 {
		t.Error("total=0 must score 0")
	}
}

func TestFunctionScore(t *testing.T) {
	if got := Function([]float64{0.8, 0.1, 1}); !almost(got, 0.8) {
		t.Errorf("function score = %f, want first statement's", got)
	}
	if Function(nil) != 0 {
		t.Error("empty function must score 0")
	}
}

func TestLikelyThreshold(t *testing.T) {
	if Likely(0.49) || !Likely(0.5) || !Likely(1) {
		t.Error("threshold boundary wrong")
	}
}

// Property: scores are always in [0, 1], and absent statements always
// score exactly 0.
func TestStatementRangeProperty(t *testing.T) {
	f := func(common, total uint8, ns []uint8, has bool) bool {
		choices := make([]int, len(ns))
		for i, n := range ns {
			choices[i] = int(n)
		}
		s := Statement(int(common), int(total), choices, has)
		if s < 0 || s > 1 {
			return false
		}
		if !has && s != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// NaN must be rejected explicitly at every surface — not merely fall
// through a failed comparison — and empty score lists stay at 0.
func TestNaNEdgeCases(t *testing.T) {
	nan := math.NaN()
	if Likely(nan) {
		t.Error("Likely(NaN) = true; NaN must never clear the threshold")
	}
	if got := Function(nil); got != 0 {
		t.Errorf("Function(nil) = %v, want 0", got)
	}
	if got := Function([]float64{}); got != 0 {
		t.Errorf("Function(empty) = %v, want 0", got)
	}
	if got := Function([]float64{nan, 0.9}); got != 0 {
		t.Errorf("Function([NaN, …]) = %v, want 0", got)
	}
	if got := Function([]float64{0.7, nan}); got != 0.7 {
		t.Errorf("Function ignores later scores: got %v, want 0.7", got)
	}
	// Statement cannot produce NaN from integer inputs, but the clamp is
	// the documented contract: non-finite intermediate results map to 0.
	if got := Statement(3, 4, []int{2}, true); math.IsNaN(got) || got < 0 || got > 1 {
		t.Errorf("Statement returned out-of-range score %v", got)
	}
	if got := Statement(0, 0, nil, true); got != 0 {
		t.Errorf("Statement with total 0 = %v, want 0", got)
	}
}
