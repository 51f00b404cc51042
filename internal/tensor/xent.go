package tensor

import "math"

// SoftmaxXent is the fused forward kernel for softmax + cross-entropy
// over r rows of c logits: for each row with targets[i] >= 0 it writes
// the softmax probabilities into probs[i*c:(i+1)*c] (one exp per
// element, shared between the normalizer and the probabilities) and the
// row's negative log-likelihood — logZ − logit[target], accumulated in
// float64 exactly like the unfused reference — into rowNLL[i]. Rows with
// target < 0 (padding) are skipped entirely: their probs stay untouched
// and their nll is 0.
func SoftmaxXent(probs, logits []float32, targets []int, r, c int, rowNLL []float64) {
	for i := 0; i < r; i++ {
		if targets[i] < 0 {
			rowNLL[i] = 0
			continue
		}
		row := logits[i*c : (i+1)*c]
		prow := probs[i*c : (i+1)*c]
		maxv := rowMax(row)
		sum := expSumShifted(prow, row, maxv)
		inv := float32(1 / sum)
		for j := range prow {
			prow[j] *= inv
		}
		rowNLL[i] = math.Log(sum) + float64(maxv) - float64(row[targets[i]])
	}
}

// XentBackward accumulates the fused kernel's gradient into dst:
// for each row with targets[i] >= 0,
//
//	dst[i][j] += upstream · weights[i] · (probs[i][j] − 1{j==target}).
//
// Padding rows contribute nothing.
func XentBackward(dst, probs []float32, targets []int, r, c int, upstream float32, weights []float32) {
	for i := 0; i < r; i++ {
		t := targets[i]
		if t < 0 {
			continue
		}
		scale := upstream * weights[i]
		drow := dst[i*c : (i+1)*c]
		prow := probs[i*c : (i+1)*c]
		for j := range drow {
			drow[j] += scale * prow[j]
		}
		drow[t] -= scale
	}
}

// SumSquares returns Σ v² in float64 (the global-norm accumulation the
// Adam clip uses).
func SumSquares(xs []float32) float64 {
	var s float64
	for _, v := range xs {
		s += float64(v) * float64(v)
	}
	return s
}

// ScaleInPlace multiplies every element by s.
func ScaleInPlace(xs []float32, s float32) {
	for i := range xs {
		xs[i] *= s
	}
}

// AdamUpdate applies one Adam step to a parameter slice: moment updates
// in float32 and the step itself in float64, in exactly the element
// order and arithmetic the in-model optimizer used before the kernel
// moved here (bit-compatible with existing training runs).
func AdamUpdate(data, grad, m, v []float32, lr float64, b1, b2 float32, eps float64) {
	for j, g := range grad {
		m[j] = b1*m[j] + (1-b1)*g
		v[j] = b2*v[j] + (1-b2)*g*g
		data[j] -= float32(lr * float64(m[j]) / (math.Sqrt(float64(v[j])) + eps))
	}
}
