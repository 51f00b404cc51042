package model

// LossBatch computes teacher-forced cross entropy for a minibatch in one
// taped forward pass. Samples are packed back to back into a ragged
// layout — sample s's rows live at [offs[s], offs[s+1]) with no padding
// anywhere — so every linear/norm/FFN op runs as a single many-row
// matmul doing exactly the per-sample flops, while attention — the only
// op that mixes rows — is one Tape.Attention node per block that keeps
// each sample to its own row range (see MHA.applyBatch). The returned
// scalar is Σ over samples of the per-sample mean NLL (so its gradient
// per sample equals the per-sample Loss gradient), and the float64
// slice holds each sample's mean NLL.
//
// Because every kernel is row-local and deterministic, each sample's
// forward values are bit-identical to Loss on its own tape; gradients
// match up to cross-sample summation order (the differential tests in
// batch_test.go pin both properties down).
func (t *Transformer) LossBatch(tp *Tape, samples []Sample) (*Tensor, []float64) {
	b := len(samples)
	if b == 0 {
		panic("model: LossBatch of empty batch")
	}

	encs := make([][]int, b)
	prefixes := make([][]int, b)
	encOffs := make([]int, b+1)
	decOffs := make([]int, b+1)
	for s, smp := range samples {
		encs[s] = t.clampSeq(smp.Input)
		prefix := append([]int{BOS}, smp.Output...)
		prefixes[s] = t.clampSeq(prefix)
		encOffs[s+1] = encOffs[s] + len(encs[s])
		decOffs[s+1] = decOffs[s] + len(prefixes[s])
	}

	encIDs := make([]int, encOffs[b])
	encPos := make([]int, encOffs[b])
	decIDs := make([]int, decOffs[b])
	decPos := make([]int, decOffs[b])
	for s := 0; s < b; s++ {
		for i, id := range encs[s] {
			encIDs[encOffs[s]+i] = id
			encPos[encOffs[s]+i] = i
		}
		for i, id := range prefixes[s] {
			decIDs[decOffs[s]+i] = id
			decPos[decOffs[s]+i] = i
		}
	}

	x := tp.Add(tp.Rows(t.Embed, encIDs), tp.Rows(t.PosEnc, encPos))
	for _, l := range t.Enc {
		x = l.applyBatch(tp, x, encOffs)
	}
	mem := t.NormE.Apply(tp, x)

	y := tp.Add(tp.Rows(t.Embed, decIDs), tp.Rows(t.PosEnc, decPos))
	for _, l := range t.Dec {
		y = l.applyBatch(tp, y, mem, decOffs, encOffs)
	}
	states := t.NormD.Apply(tp, y)

	// Tied output projection, one kernel call for the whole batch.
	logits := tp.MatMulNT(states, t.Embed)

	// Every row is a real target row; weighting each of sample s's rows
	// by 1/len_s makes the batch scalar the sum of per-sample means.
	targets := make([]int, decOffs[b])
	weights := make([]float32, decOffs[b])
	for s, smp := range samples {
		n := decOffs[s+1] - decOffs[s]
		w := float32(1 / float64(n))
		tgt := append(append([]int{}, smp.Output...), EOS)
		for i := 0; i < n; i++ {
			targets[decOffs[s]+i] = tgt[i]
			weights[decOffs[s]+i] = w
		}
	}

	loss, rowNLL := tp.CrossEntropyWeighted(logits, targets, weights)
	per := make([]float64, b)
	for s := 0; s < b; s++ {
		var sum float64
		for i := decOffs[s]; i < decOffs[s+1]; i++ {
			sum += rowNLL[i]
		}
		per[s] = sum / float64(decOffs[s+1]-decOffs[s])
	}
	return loss, per
}
