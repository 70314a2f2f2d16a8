// Package taskselect implements the paper's core optimization: selecting
// checking tasks for the expert crowd. Theorem 1 reduces maximizing the
// expected quality improvement ΔQ(F|T) to minimizing the conditional
// entropy H(O | AS^T_CE) of the observations given the crowdsourced answer
// families for the query set T (Theorem 2); the exact problem is NP-hard
// (Theorem 3), so the package provides the greedy (1-1/e) approximation of
// Algorithm 2 next to the exact brute-force selector and two baselines.
package taskselect

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/mathx"
)

// evalCount tracks how many conditional-entropy evaluations (the 2^(s·w)
// answer-family enumerations) have run. It is the package's cost unit: the
// incremental-selection benchmarks compare engines by evaluations per
// round, which is hardware-independent, rather than by wall clock.
var evalCount atomic.Int64

// EvalCount returns the number of conditional-entropy evaluations
// performed since the last ResetEvalCount. Safe for concurrent use.
func EvalCount() int64 { return evalCount.Load() }

// ResetEvalCount zeroes the evaluation counter.
func ResetEvalCount() { evalCount.Store(0) }

// maxFamilyBits caps the answer-family enumeration 2^(|T|·|CE|); above
// this the exact conditional entropy is deliberately refused rather than
// silently running for hours (the paper's Table III "timeout" regime).
const maxFamilyBits = 26

var (
	// ErrNoExperts is returned when the expert crowd CE is empty: with no
	// checkers the answer family is empty and selection is undefined.
	ErrNoExperts = errors.New("taskselect: expert crowd is empty")
	// ErrTooLarge is returned when 2^(|T|·|CE|) answer families exceed the
	// enumeration cap.
	ErrTooLarge = errors.New("taskselect: answer-family space too large to enumerate")
)

// validateQuerySet checks the query facts are in-range and distinct.
func validateQuerySet(d *belief.Dist, facts []int) error {
	for _, f := range facts {
		if f < 0 || f >= d.NumFacts() {
			return fmt.Errorf("taskselect: fact %d outside task with %d facts", f, d.NumFacts())
		}
	}
	if f, dup := duplicateFact(facts, d.NumFacts()); dup {
		return fmt.Errorf("taskselect: duplicate fact %d in query set", f)
	}
	return nil
}

// duplicateFact reports the first fact index appearing twice in facts.
// All entries must be in [0, numFacts). A []bool table replaces the old
// single-int bitmask, whose `1 << f` is defined as 0 in Go for f ≥ 64 —
// duplicates past index 63 sailed through undetected.
func duplicateFact(facts []int, numFacts int) (int, bool) {
	var stack [64]bool
	seen := stack[:]
	if numFacts > len(stack) {
		seen = make([]bool, numFacts)
	} else {
		seen = seen[:numFacts]
	}
	for _, f := range facts {
		if seen[f] {
			return f, true
		}
		seen[f] = true
	}
	return 0, false
}

// projection returns q, the marginal distribution of the belief on the
// query facts: q[p] = sum of P(o) over observations o whose truth values
// on facts (in the given order) spell the bit pattern p.
func projection(d *belief.Dist, facts []int) []float64 {
	return projectionInto(nil, d, facts)
}

// likelihoodTables precomputes, for every expert, the answer-pattern
// likelihood indexed by Hamming distance: table[cr][d] =
// Pr_cr^(s-d) · (1-Pr_cr)^d, the Lemma 1 likelihood of an answer pattern
// disagreeing with the true pattern on exactly d of the s queries.
func likelihoodTables(ce crowd.Crowd, s int) [][]float64 {
	tables := make([][]float64, len(ce))
	for i, w := range ce {
		// tab[d] = pr^(s-d) * er^d, computed by direct powers so that an
		// oracle worker (pr == 1, er == 0) is exact rather than 0/0.
		tab := make([]float64, s+1)
		pr, er := w.Accuracy, 1-w.Accuracy
		for d := 0; d <= s; d++ {
			v := 1.0
			for t := 0; t < s-d; t++ {
				v *= pr
			}
			for t := 0; t < d; t++ {
				v *= er
			}
			tab[d] = v
		}
		tables[i] = tab
	}
	return tables
}

// CondEntropy computes H(O | AS^T_CE) of Equation 34 for the query set
// `facts` (local indices into the task belief d) and expert crowd ce.
//
// It uses the identity H(O|AS) = H(O) − H(AS) + H(AS|O) with
// H(AS|O) = |T| · Σ_cr h(Pr_cr): the answers depend on the observation
// only through its projection onto T, and given that pattern every answer
// is an independent Bernoulli with the worker's accuracy. This removes the
// 2^m factor from the family enumeration; CondEntropyNaive retains the
// textbook form and the tests assert both agree.
func CondEntropy(d *belief.Dist, ce crowd.Crowd, facts []int) (float64, error) {
	if len(ce) == 0 {
		return 0, ErrNoExperts
	}
	if err := validateQuerySet(d, facts); err != nil {
		return 0, err
	}
	if len(facts) == 0 {
		return d.Entropy(), nil
	}
	s := len(facts)
	w := len(ce)
	if s*w > maxFamilyBits {
		return 0, fmt.Errorf("%w: |T|=%d × |CE|=%d", ErrTooLarge, s, w)
	}
	for _, wk := range ce {
		if wk.Asymmetric() {
			return condEntropyAsym(d, ce, facts)
		}
	}
	q := projection(d, facts)
	tables := likelihoodTables(ce, s)
	return condEntropySymCore(d.Entropy(), q, tables, symAnswerEntropy(ce), s, w), nil
}

// symAnswerEntropy returns Σ_cr h(Pr_cr), the per-query answer entropy of
// a symmetric crowd. It depends only on the crowd, so the incremental
// engine computes it once per run.
func symAnswerEntropy(ce crowd.Crowd) float64 {
	var h float64
	for _, wk := range ce {
		h += mathx.BernoulliEntropy(wk.Accuracy)
	}
	return h
}

// Batched-enumeration size window. Both family-entropy paths compute the
// identical floats (see the symFamilyEntropyBatch comment), so the
// threshold is purely a performance knob: below minBatchFam the batch
// path's buffer setup outweighs its fused loops (the rescans' singleton
// query sets live here), above maxBatchFam the 2^(s·w) accumulation
// vector would claim tens of megabytes, so the constant-space scalar
// sweep takes over up to the maxFamilyBits refusal.
const (
	minBatchFam = 16
	maxBatchFam = 1 << 20
)

// coreScratch holds the batched family enumeration's working vectors: the
// per-family accumulator pAs, the ping-pong tensor buffers ta/tb, the
// per-variable factor vector v, and the per-variable Bernoulli entropy
// table hB. Pool-managed so steady-state evaluations allocate nothing.
type coreScratch struct {
	pAs, ta, tb, v []float64
	hB             [][2]float64
}

var corePool = sync.Pool{New: func() any { return new(coreScratch) }}

// condEntropySymCore evaluates H(O|AS) for a symmetric crowd from the
// precomputed pieces: the task entropy H(O), the projection q of the
// belief onto the s query facts, the Hamming-distance likelihood tables,
// and the crowd's per-query answer entropy. Splitting the evaluation from
// the setup lets SelectionState memoize the crowd tables across calls;
// the arithmetic is identical to the inline form, so memoized and fresh
// evaluations agree bitwise.
func condEntropySymCore(entropy float64, q []float64, tables [][]float64, hPerQuery float64, s, w int) float64 {
	evalCount.Add(1)

	// H(AS): enumerate every family (one s-bit answer pattern per expert).
	var hAS float64
	if nFam := 1 << uint(s*w); nFam >= minBatchFam && nFam <= maxBatchFam {
		hAS = symFamilyEntropyBatch(q, tables, s, w)
	} else {
		hAS = symFamilyEntropyScalar(q, tables, s, w)
	}

	// H(AS|O) = s · Σ_cr h(Pr_cr).
	hASgivenO := hPerQuery * float64(s)

	h := entropy - hAS + hASgivenO
	if h < 0 { // rounding: conditional entropy is non-negative
		h = 0
	}
	return h
}

// symFamilyEntropyScalar is the constant-space family sweep: for every
// family (one s-bit answer pattern per expert) it accumulates P(A) over
// the projection patterns and folds -XLogX(P(A)) into H(AS).
func symFamilyEntropyScalar(q []float64, tables [][]float64, s, w int) float64 {
	var hAS float64
	nFam := 1 << uint(s*w)
	if s == 1 {
		// Single-query specialization of the sweep below — the dominant
		// shape in the incremental engines' round-start rescans. Each
		// expert's answer pattern is one bit, so the Hamming distance is
		// the XOR bit itself; the multiply chain is unchanged, so the
		// result is bitwise the general sweep's.
		for fam := 0; fam < nFam; fam++ {
			var pA float64
			for p, qp := range q {
				if qp == 0 {
					continue
				}
				like := qp
				for cr := 0; cr < w; cr++ {
					like *= tables[cr][((fam>>uint(cr))&1)^p]
				}
				pA += like
			}
			hAS -= mathx.XLogX(pA)
		}
		return hAS
	}
	mask := (1 << uint(s)) - 1
	for fam := 0; fam < nFam; fam++ {
		var pA float64
		for p, qp := range q {
			if qp == 0 {
				continue
			}
			like := qp
			for cr := 0; cr < w; cr++ {
				a := (fam >> uint(cr*s)) & mask
				like *= tables[cr][bits.OnesCount(uint(a^p))]
			}
			pA += like
		}
		hAS -= mathx.XLogX(pA)
	}
	return hAS
}

// symFamilyEntropyBatch computes the same H(AS) with the loops swapped:
// patterns outside, families expanded as a tensor product. For each
// projection pattern p it builds the per-expert factor vector v[a] =
// table[popcount(a^p)], expands Π_cr v_cr(a_cr) by repeated OuterMul
// (expert cr's answer pattern occupies bits [cr·s, (cr+1)·s) of the
// family index, so each expansion puts the new factors in the high bits),
// adds the expanded vector into the per-family accumulator, and finally
// folds the whole accumulator through EntropySum.
//
// Bitwise identity with the scalar sweep: every family's product chain
// t_{w-1}·(…·(t_0·qp)) equals the scalar ((qp·t_0)·…)·t_{w-1} because
// IEEE-754 multiplication is commutative per operation and the chain
// shapes match; AddTo visits patterns in the same ascending order the
// scalar sweep sums them; EntropySum is the scalar `hAS -= XLogX(pA)`
// loop. The batch form does ~w× fewer multiplies and runs on contiguous
// vectors instead of per-family bit arithmetic.
func symFamilyEntropyBatch(q []float64, tables [][]float64, s, w int) float64 {
	sc := corePool.Get().(*coreScratch)
	nFam := 1 << uint(s*w)
	nPat := 1 << uint(s)
	sc.pAs = grow(sc.pAs, nFam)
	sc.ta = grow(sc.ta, nFam)
	sc.tb = grow(sc.tb, nFam)
	sc.v = grow(sc.v, nPat)
	pAs, v := sc.pAs, sc.v
	for i := range pAs {
		pAs[i] = 0
	}
	for p, qp := range q {
		if qp == 0 {
			continue
		}
		spare := sc.tb
		cur := sc.ta[:1]
		cur[0] = qp
		for cr := 0; cr < w; cr++ {
			tab := tables[cr]
			for a := 0; a < nPat; a++ {
				v[a] = tab[bits.OnesCount(uint(a^p))]
			}
			dst := spare[:nPat*len(cur)]
			mathx.OuterMul(dst, v, cur)
			spare = cur[:cap(cur)]
			cur = dst
		}
		mathx.AddTo(pAs, cur)
	}
	hAS := mathx.EntropySum(pAs)
	corePool.Put(sc)
	return hAS
}

// condEntropyAsym is the confusion-model variant of the optimized
// evaluator. The projection identity still holds — answers depend on the
// observation only through its pattern on T — but the per-answer terms
// are class-conditional (TPR/TNR), so the Hamming-distance tables are
// replaced by per-position factors and H(AS|O) becomes pattern-dependent:
// H(AS|O) = Σ_p q(p) Σ_cr Σ_j h(P(yes | p_j)).
func condEntropyAsym(d *belief.Dist, ce crowd.Crowd, facts []int) (float64, error) {
	q := projection(d, facts)
	return condEntropyAsymCore(d.Entropy(), q, asymYesTable(ce), len(facts), len(ce)), nil
}

// asymYesTable returns pYes[cr][tv]: P(worker cr answers Yes | fact truth
// tv). It depends only on the crowd, so the incremental engine computes it
// once per run.
func asymYesTable(ce crowd.Crowd) [][2]float64 {
	pYes := make([][2]float64, len(ce))
	for cr, wk := range ce {
		pYes[cr][1] = wk.PCorrect(true)      // TPR
		pYes[cr][0] = 1 - wk.PCorrect(false) // 1 - TNR
	}
	return pYes
}

// condEntropyAsymCore is the evaluation half of condEntropyAsym, split out
// (like condEntropySymCore) so the per-worker yes probabilities can be
// memoized by the incremental engine. Both family paths group each
// worker's per-query factors into one subproduct before folding it into
// the likelihood chain, so scalar and batch agree bitwise.
func condEntropyAsymCore(entropy float64, q []float64, pYes [][2]float64, s, w int) float64 {
	evalCount.Add(1)

	var hAS float64
	if nFam := 1 << uint(s*w); nFam >= minBatchFam && nFam <= maxBatchFam {
		hAS = asymFamilyEntropyBatch(q, pYes, s, w)
	} else {
		hAS = asymFamilyEntropyScalar(q, pYes, s, w)
	}

	// H(AS|O) = Σ_p q(p) Σ_cr Σ_j h(P(yes | p_j)); the per-(worker, truth)
	// Bernoulli entropies are computed once up front.
	sc := corePool.Get().(*coreScratch)
	sc.hB = grow(sc.hB, w)
	hB := sc.hB
	for cr := 0; cr < w; cr++ {
		hB[cr][0] = mathx.BernoulliEntropy(pYes[cr][0])
		hB[cr][1] = mathx.BernoulliEntropy(pYes[cr][1])
	}
	var hASgivenO float64
	for p, qp := range q {
		if qp == 0 {
			continue
		}
		var hp float64
		for cr := 0; cr < w; cr++ {
			for j := 0; j < s; j++ {
				hp += hB[cr][(p>>uint(j))&1]
			}
		}
		hASgivenO += qp * hp
	}
	corePool.Put(sc)

	h := entropy - hAS + hASgivenO
	if h < 0 {
		h = 0
	}
	return h
}

// asymFamilyEntropyScalar is the constant-space family sweep of the
// confusion-model H(AS). Each worker's s per-query factors accumulate
// into a subproduct of their own before multiplying the likelihood —
// the association the batch path's per-worker factor vectors use.
func asymFamilyEntropyScalar(q []float64, pYes [][2]float64, s, w int) float64 {
	var hAS float64
	nFam := 1 << uint(s*w)
	mask := (1 << uint(s)) - 1
	for fam := 0; fam < nFam; fam++ {
		var pA float64
		for p, qp := range q {
			if qp == 0 {
				continue
			}
			like := qp
			for cr := 0; cr < w; cr++ {
				a := (fam >> uint(cr*s)) & mask
				sub := 1.0
				for j := 0; j < s; j++ {
					tv := (p >> uint(j)) & 1
					py := pYes[cr][tv]
					if a&(1<<uint(j)) != 0 {
						sub *= py
					} else {
						sub *= 1 - py
					}
				}
				like *= sub
			}
			pA += like
		}
		hAS -= mathx.XLogX(pA)
	}
	return hAS
}

// asymFamilyEntropyBatch is symFamilyEntropyBatch for the confusion
// model: the per-expert factor vector over answer patterns is built by
// progressive doubling in query order (v[a] = Π_j f_j(a_j), the scalar
// subproduct's chain shape), then expanded across experts by OuterMul
// exactly as the symmetric path.
func asymFamilyEntropyBatch(q []float64, pYes [][2]float64, s, w int) float64 {
	sc := corePool.Get().(*coreScratch)
	nFam := 1 << uint(s*w)
	nPat := 1 << uint(s)
	sc.pAs = grow(sc.pAs, nFam)
	sc.ta = grow(sc.ta, nFam)
	sc.tb = grow(sc.tb, nFam)
	sc.v = grow(sc.v, nPat)
	pAs, v := sc.pAs, sc.v
	for i := range pAs {
		pAs[i] = 0
	}
	for p, qp := range q {
		if qp == 0 {
			continue
		}
		spare := sc.tb
		cur := sc.ta[:1]
		cur[0] = qp
		for cr := 0; cr < w; cr++ {
			// v[a] = Π_j (a_j ? P(yes|p_j) : 1-P(yes|p_j)) by doubling.
			v[0] = 1
			size := 1
			for j := 0; j < s; j++ {
				py := pYes[cr][(p>>uint(j))&1]
				no := 1 - py
				for i := 0; i < size; i++ {
					vi := v[i]
					v[size+i] = py * vi
					v[i] = no * vi
				}
				size <<= 1
			}
			dst := spare[:nPat*len(cur)]
			mathx.OuterMul(dst, v, cur)
			spare = cur[:cap(cur)]
			cur = dst
		}
		mathx.AddTo(pAs, cur)
	}
	hAS := mathx.EntropySum(pAs)
	corePool.Put(sc)
	return hAS
}

// CondEntropyNaive computes H(O | AS^T_CE) directly from the definition:
// for every possible answer family it forms the Bayesian posterior over
// all observations and accumulates P(A)·H(O|A). It is exponentially more
// expensive than CondEntropy (extra 2^m factor) and exists as the
// reference implementation for tests and the naive-vs-fast ablation bench.
func CondEntropyNaive(d *belief.Dist, ce crowd.Crowd, facts []int) (float64, error) {
	if len(ce) == 0 {
		return 0, ErrNoExperts
	}
	if err := validateQuerySet(d, facts); err != nil {
		return 0, err
	}
	if len(facts) == 0 {
		return d.Entropy(), nil
	}
	s := len(facts)
	w := len(ce)
	if s*w > maxFamilyBits {
		return 0, fmt.Errorf("%w: |T|=%d × |CE|=%d", ErrTooLarge, s, w)
	}
	nFam := 1 << uint(s*w)
	mask := (1 << uint(s)) - 1
	nObs := d.NumObservations()
	post := make([]float64, nObs)
	var h float64
	for fam := 0; fam < nFam; fam++ {
		var pA float64
		for o := 0; o < nObs; o++ {
			po := d.P(o)
			if po == 0 {
				post[o] = 0
				continue
			}
			// Project o onto the query facts.
			p := 0
			for j, f := range facts {
				if belief.Models(o, f) {
					p |= 1 << uint(j)
				}
			}
			like := po
			for cr := 0; cr < w; cr++ {
				a := (fam >> uint(cr*s)) & mask
				for j := 0; j < s; j++ {
					tv := p&(1<<uint(j)) != 0
					pc := ce[cr].PCorrect(tv)
					if (a&(1<<uint(j)) != 0) == tv {
						like *= pc
					} else {
						like *= 1 - pc
					}
				}
			}
			post[o] = like
			pA += like
		}
		if pA == 0 {
			continue
		}
		// P(A) · H(O|A) = -Σ_o P(o,A) ln (P(o,A)/P(A)).
		for _, v := range post {
			if v == 0 {
				continue
			}
			h -= v * (mathx.Log(v) - mathx.Log(pA))
		}
	}
	if h < 0 {
		h = 0
	}
	return h, nil
}

// QualityGain returns the expected quality improvement of Theorem 1,
// ΔQ(F|T) = H(O) − H(O | AS^T_CE); it is non-negative (information never
// hurts in expectation).
func QualityGain(d *belief.Dist, ce crowd.Crowd, facts []int) (float64, error) {
	h, err := CondEntropy(d, ce, facts)
	if err != nil {
		return 0, err
	}
	g := d.Entropy() - h
	if g < 0 {
		g = 0
	}
	return g, nil
}

// ExpectedQuality returns Q(F|T) of Definition 5: the expectation over all
// answer families of the posterior quality. By Theorem 1 it equals
// Q(F) + ΔQ(F|T); the tests verify the identity by brute force.
func ExpectedQuality(d *belief.Dist, ce crowd.Crowd, facts []int) (float64, error) {
	g, err := QualityGain(d, ce, facts)
	if err != nil {
		return 0, err
	}
	return d.Quality() + g, nil
}
