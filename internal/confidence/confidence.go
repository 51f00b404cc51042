// Package confidence implements VEGA's confidence scoring (Equation 1):
// the score of a statement S_k derived from template T_k is
//
//	CS(S_k) = (|T_k^com|/|T_k| + Σ_{SV∈T_k^var} 1/(|T_k|·N(SV))) · has(S_k)
//
// where |T_k^com| counts common-code tokens, |T_k| all tokens, N(SV) the
// number of possible target-specific values for placeholder SV on this
// target, and has(S_k) is 1 iff the statement exists for the target.
// A statement scoring below Threshold is flagged for manual review; the
// confidence of a whole function is the score of its first statement (the
// function definition line).
package confidence

import "math"

// Threshold is the paper's accuracy threshold: statements scoring below
// it are treated as incorrect (and removed or reviewed).
const Threshold = 0.5

// NaN policy: a score that is NaN (a corrupted model output, a poisoned
// feature ratio) carries no information and must never pass a filter by
// accident. Likely treats NaN as explicitly not-likely, and
// Statement/Function clamp non-finite results to 0, "maximal
// uncertainty". Before these guards, NaN reached
// the same outcomes only through the incidental semantics of failed
// float comparisons.

// Statement computes CS(S_k).
//
// common is |T_k^com|, total is |T_k| (common + placeholder slots), and
// choices holds N(SV) for each placeholder of the row on the target at
// hand. A placeholder with no mined candidates (N = 0) contributes zero —
// maximal uncertainty. has reports whether the statement exists in the
// target-specific implementation.
func Statement(common, total int, choices []int, has bool) float64 {
	if !has {
		return 0
	}
	if total <= 0 {
		return 0
	}
	score := float64(common) / float64(total)
	for _, n := range choices {
		if n <= 0 {
			continue
		}
		score += 1 / (float64(total) * float64(n))
	}
	if math.IsNaN(score) || math.IsInf(score, 0) {
		return 0
	}
	if score > 1 {
		score = 1
	}
	return score
}

// Function returns the function-level confidence given its per-statement
// scores: the score of the first statement, which corresponds to the
// function definition line.
func Function(stmtScores []float64) float64 {
	if len(stmtScores) == 0 {
		return 0
	}
	if s := stmtScores[0]; !math.IsNaN(s) {
		return s
	}
	return 0
}

// Likely reports whether a score clears the accuracy threshold. NaN is
// explicitly not likely (not merely by comparison accident).
func Likely(score float64) bool {
	if math.IsNaN(score) {
		return false
	}
	return score >= Threshold
}
