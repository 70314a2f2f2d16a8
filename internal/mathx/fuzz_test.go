package mathx

import (
	"math"
	"testing"
)

// finite filters fuzz inputs down to the domain the kernels promise to
// handle: NaN propagates by design, and ±Inf inputs are exercised by
// the table-driven unit tests instead.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// FuzzLogSumExp checks the log-domain kernel under arbitrary finite
// inputs: the result is finite, bounded by max(x) from below and
// max(x)+ln(n) from above (the defining envelope of logsumexp), grows
// monotonically when an element is added, and agrees with the pairwise
// LogAdd fold. These are the Lemma 1-3 stability properties the belief
// updates lean on.
func FuzzLogSumExp(f *testing.F) {
	f.Add(0.0, 0.0, 0.0)
	f.Add(-745.0, 710.0, 0.0) // exp under/overflow territory
	f.Add(1e-300, -1e-300, 1e300)
	f.Add(-1e308, -1e308, -1e308)
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		if !finite(a, b, c) {
			return
		}
		x := []float64{a, b, c}
		lse := LogSumExp(x)
		m := math.Max(a, math.Max(b, c))
		if math.IsNaN(lse) || math.IsInf(lse, -1) {
			t.Fatalf("LogSumExp(%v) = %v for finite inputs", x, lse)
		}
		// Envelope: max <= lse <= max + ln(3), with slack for rounding.
		const tol = 1e-9
		if lse < m-tol {
			t.Fatalf("LogSumExp(%v) = %v below max input %v", x, lse, m)
		}
		if lse > m+math.Log(3)+tol {
			t.Fatalf("LogSumExp(%v) = %v above max+ln(3) = %v", x, lse, m+math.Log(3))
		}
		// Monotonicity: adding an element only adds mass.
		lse2 := LogSumExp(x[:2])
		if lse < lse2-tol {
			t.Fatalf("LogSumExp shrank when adding an element: %v -> %v", lse2, lse)
		}
		// Agreement with the pairwise fold, in relative tolerance: both
		// compute ln(e^a+e^b+e^c), just associated differently.
		fold := LogAdd(LogAdd(a, b), c)
		if diff := math.Abs(lse - fold); diff > tol*math.Max(1, math.Abs(lse)) {
			t.Fatalf("LogSumExp(%v) = %v but LogAdd fold = %v (diff %v)", x, lse, fold, diff)
		}
	})
}

// FuzzBatchKernels checks the batched entropy kernels against the scalar
// accumulation order they promise to reproduce: on arbitrary finite
// non-negative 4-vectors, XLogXSum and EntropySum must equal the
// element-at-a-time loops bit for bit (same partial-sum rounding), and
// OuterMul must equal the nested scalar products. This is the contract
// that lets taskselect's family-entropy enumerator match its scalar
// oracle sweeps bit for bit, and so keep the selection engines' picks.
func FuzzBatchKernels(f *testing.F) {
	f.Add(0.25, 0.25, 0.25, 0.25)
	f.Add(0.0, 1.0, 0.0, 1.0)
	f.Add(1e-320, 1e300, 1e-320, 1.0) // subnormal and huge coordinates
	f.Add(0.1, 0.9, 0.5, 0.5)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		x := []float64{math.Abs(a), math.Abs(b), math.Abs(c), math.Abs(d)}
		if !finite(x...) {
			return
		}
		var sum float64
		for _, v := range x {
			sum += XLogX(v)
		}
		if got := XLogXSum(x); math.Float64bits(got) != math.Float64bits(sum) {
			t.Fatalf("XLogXSum(%v) = %v, scalar accumulation = %v", x, got, sum)
		}
		var h float64
		for _, v := range x {
			h -= XLogX(v)
		}
		if got := EntropySum(x); math.Float64bits(got) != math.Float64bits(h) {
			t.Fatalf("EntropySum(%v) = %v, scalar accumulation = %v", x, got, h)
		}
		dst := make([]float64, 4)
		OuterMul(dst, x[:2], x[2:])
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if want := x[i] * x[2+j]; math.Float64bits(dst[i*2+j]) != math.Float64bits(want) {
					t.Fatalf("OuterMul(%v) = %v, want [i][j] = %v", x, dst, want)
				}
			}
		}
	})
}

// FuzzEntropy checks H(p) on arbitrary normalized 3-vectors: finite,
// never negative (H >= 0 is the floor Definition 2's quality function
// assumes), at most ln(n), and consistent with NegEntropy. Weights are
// taken through math.Abs and normalized so the fuzzer explores the
// whole simplex, including zero and subnormal coordinates.
func FuzzEntropy(f *testing.F) {
	f.Add(1.0, 1.0, 1.0)
	f.Add(1.0, 0.0, 0.0)
	f.Add(1e-320, 1.0, 1e-320) // subnormal coordinates
	f.Add(1e300, 1.0, 1e-300)
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		w := []float64{math.Abs(a), math.Abs(b), math.Abs(c)}
		sum := w[0] + w[1] + w[2]
		if !finite(w...) || !finite(sum) || sum == 0 {
			return
		}
		p := []float64{w[0] / sum, w[1] / sum, w[2] / sum}
		if !finite(p...) {
			return // e.g. subnormal/huge ratios rounding to non-finite
		}
		h := Entropy(p)
		if math.IsNaN(h) || math.IsInf(h, 0) {
			t.Fatalf("Entropy(%v) = %v", p, h)
		}
		if h < 0 {
			t.Fatalf("Entropy(%v) = %v < 0", p, h)
		}
		const tol = 1e-9
		if h > math.Log(3)+tol {
			t.Fatalf("Entropy(%v) = %v above ln(3)", p, h)
		}
		if q := NegEntropy(p); q > 0 || math.Abs(q+h) > tol {
			t.Fatalf("NegEntropy(%v) = %v inconsistent with Entropy %v", p, q, h)
		}
		// The Bernoulli specialization must agree with the vector form
		// on two-point distributions.
		pb := p[0] / (p[0] + p[1])
		if p2 := p[0] + p[1]; p2 > 0 && finite(pb) {
			hb := BernoulliEntropy(pb)
			hv := Entropy([]float64{pb, 1 - pb})
			if math.Abs(hb-hv) > tol {
				t.Fatalf("BernoulliEntropy(%v) = %v but Entropy = %v", pb, hb, hv)
			}
		}
	})
}
