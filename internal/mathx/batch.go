package mathx

// Batched kernels for the entropy hot path. Each one is a plain loop over
// a slice, written so its accumulation order is exactly the order an
// element-at-a-time loop uses — callers that replace such a loop with one
// of these get bitwise-identical results. That is what lets the
// family-entropy enumerator in taskselect, built on OuterMul and AddTo,
// reproduce bit for bit the scalar family sweeps its tests keep as
// oracles, and so leave the selection engines' picks unchanged. Keeping
// them as whole-vector loops (no branches beyond the XLogX zero guard, no
// index arithmetic) also gives the compiler straight-line code it can
// keep in registers.

// XLogXSum returns Σ_i x_i·ln(x_i), accumulated in index order with the
// XLogX zero convention. It is the batched form of the scalar loop
// `s += XLogX(v)` and matches it bitwise.
func XLogXSum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += XLogX(v)
	}
	return s
}

// EntropySum returns -Σ_i x_i·ln(x_i), accumulated in index order as the
// scalar loop `h -= XLogX(v)` would — bitwise identical to it, including
// the rounding of each partial sum. Unlike Entropy it does not clamp
// small negative rounding residue to zero; callers that fold the result
// into a larger expression clamp at the end themselves.
func EntropySum(x []float64) float64 {
	var h float64
	for _, v := range x {
		h -= XLogX(v)
	}
	return h
}

// OuterMul writes the outer product dst[i·len(b)+j] = a[i]·b[j]. It is
// the expansion step of the tensor-product family enumeration: b holds
// the partial likelihoods over the already-processed answer variables and
// a the per-pattern factors of the next one, so dst holds the partials
// over their concatenation with a's index in the high bits. dst must have
// length len(a)·len(b) and must not alias a or b.
func OuterMul(dst, a, b []float64) {
	if len(dst) != len(a)*len(b) {
		panic("mathx: OuterMul dst length mismatch")
	}
	for i, ai := range a {
		row := dst[i*len(b) : (i+1)*len(b)]
		for j, bj := range b {
			row[j] = ai * bj
		}
	}
}

// AddTo accumulates dst[i] += x[i] element-wise. Both slices must have
// the same length. Calling it once per term, in term order, matches the
// scalar accumulation `dst[i] += term` bitwise for every element.
func AddTo(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mathx: AddTo length mismatch")
	}
	for i, v := range x {
		dst[i] += v
	}
}
