package tensor

import "math"

// LayerNormRows is layer norm's forward over n rows of len(gain) floats:
// dst row i = (src row i − mean)·invstd·gain + bias, with the mean and
// the variance each one ascending float32 chain over the row. Several
// rows' chains advance together — eight in the lanes of one vector on
// the AVX2 path when the width is a multiple of 8, else four side by
// side — which only interleaves independent chains, so every row gets
// the bits a row-at-a-time loop gives. When means and invstd are non-nil
// they receive each row's mean and 1/√(var+ε) for the backward. dst may
// be src or must not overlap it. The tape, the batched encoder and the
// incremental decoder all normalize through it.
func LayerNormRows(dst, src []float32, n int, gain, bias, means, invstd []float32) {
	c := len(gain)
	i := 0
	if useAVX2 && c > 0 && c%8 == 0 {
		var mean, ss [8]float32
		for ; i+8 <= n; i += 8 {
			rows := src[i*c : (i+8)*c]
			layerNormStats8AVX2(&rows[0], c, float32(c), &mean[0], &ss[0])
			for l := range mean {
				layerNormApply(dst[(i+l)*c:], rows[l*c:(l+1)*c], i+l, mean[l], ss[l], gain, bias, means, invstd)
			}
		}
	}
	for ; i+4 <= n; i += 4 {
		r0, r1 := src[i*c:(i+1)*c], src[(i+1)*c:(i+2)*c]
		r2, r3 := src[(i+2)*c:(i+3)*c], src[(i+3)*c:(i+4)*c]
		var m0, m1, m2, m3 float32
		for j := range r0 {
			m0 += r0[j]
			m1 += r1[j]
			m2 += r2[j]
			m3 += r3[j]
		}
		m0 /= float32(c)
		m1 /= float32(c)
		m2 /= float32(c)
		m3 /= float32(c)
		var v0, v1, v2, v3 float32
		for j := range r0 {
			d0, d1, d2, d3 := r0[j]-m0, r1[j]-m1, r2[j]-m2, r3[j]-m3
			v0 += d0 * d0
			v1 += d1 * d1
			v2 += d2 * d2
			v3 += d3 * d3
		}
		layerNormApply(dst[i*c:], r0, i, m0, v0, gain, bias, means, invstd)
		layerNormApply(dst[(i+1)*c:], r1, i+1, m1, v1, gain, bias, means, invstd)
		layerNormApply(dst[(i+2)*c:], r2, i+2, m2, v2, gain, bias, means, invstd)
		layerNormApply(dst[(i+3)*c:], r3, i+3, m3, v3, gain, bias, means, invstd)
	}
	for ; i < n; i++ {
		row := src[i*c : (i+1)*c]
		var mean float32
		for _, v := range row {
			mean += v
		}
		mean /= float32(c)
		var vr float32
		for _, v := range row {
			d := v - mean
			vr += d * d
		}
		layerNormApply(dst[i*c:], row, i, mean, vr, gain, bias, means, invstd)
	}
}

// layerNormApply finishes row i of LayerNormRows from its mean and its
// sum of squared deviations ss: dst[j] = (row[j]-mean)*is*gain[j] +
// bias[j], the four operations rounded one by one in that order, in
// eight lanes on the AVX2 path.
func layerNormApply(dst, row []float32, i int, mean, ss float32, gain, bias, means, invstd []float32) {
	const eps = 1e-5
	vr := ss / float32(len(row))
	is := float32(1 / math.Sqrt(float64(vr)+eps))
	if means != nil {
		means[i], invstd[i] = mean, is
	}
	n := len(row)
	if n == 0 {
		return
	}
	dst, gain, bias = dst[:n], gain[:n], bias[:n]
	if useAVX2 {
		layerNormApplyAVX2(&dst[0], &row[0], &gain[0], &bias[0], n, mean, is)
		return
	}
	for j, v := range row {
		dst[j] = (v-mean)*is*gain[j] + bias[j]
	}
}
