package model

import "math"

// Beam holds one decoding hypothesis.
type Beam struct {
	IDs  []int
	LogP float64
	done bool

	// emitted counts the tokens the model actually emitted for this
	// hypothesis, including the EOS that IDs strips from finished beams.
	// Length normalization must use this count: normalizing done beams
	// by the shorter len(IDs) while live beams at the same step divide
	// by their full length biased pruning toward early termination.
	emitted int
}

// Score returns the length-normalized log probability, normalizing over
// the emitted-token count (EOS included) so finished and live hypotheses
// at the same step are compared over the same number of factors in LogP.
func (b Beam) Score() float64 {
	n := b.emitted
	if n == 0 {
		n = len(b.IDs)
	}
	if n == 0 {
		n = 1
	}
	return b.LogP / float64(n)
}

// BeamGenerate runs Beam over a KV-cached decoder of input.
func (t *Transformer) BeamGenerate(input []int, maxLen, width int) []Beam {
	return t.Beam(t.NewIncrementalDecoder(input), maxLen, width)
}

// Perplexity computes exp(mean cross entropy) of the model over samples,
// a convergence diagnostic.
func Perplexity(m Seq2Seq, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var total float64
	for _, s := range samples {
		tp := NewTape()
		loss := m.Loss(tp, s.Input, s.Output)
		total += float64(loss.Data[0])
	}
	return math.Exp(total / float64(len(samples)))
}
