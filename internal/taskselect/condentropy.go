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
// textbook form and the tests assert both agree. Both reject a crowd with
// a worker that fails Worker.Validate.
func CondEntropy(d *belief.Dist, ce crowd.Crowd, facts []int) (float64, error) {
	if len(ce) == 0 {
		return 0, ErrNoExperts
	}
	asym := false
	for _, wk := range ce {
		if err := wk.Validate(); err != nil {
			return 0, err
		}
		asym = asym || wk.Asymmetric()
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
	q := projection(d, facts)
	sc := getScratch()
	defer putScratch(sc)
	if asym {
		return condEntropyAsymCore(sc, d.Entropy(), q, asymYesTable(ce), s, w), nil
	}
	return condEntropySymCore(sc, d.Entropy(), q, likelihoodTables(ce, s), symAnswerEntropy(ce), s, w), nil
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

// famBlock is the most answer families the enumerator holds at once: its
// accumulator and two tensor buffers are each famBlock floats (8 MiB), and
// larger family spaces, up to the maxFamilyBits refusal, are walked block
// by block in constant space.
const famBlock = 1 << 20

// unitFill writes into dst the likelihood factors of one answer unit's
// answer patterns off, off+1, …, off+len(dst)−1 given the projection
// pattern p. The enumerator calls it with len(dst) a power of two and off
// a multiple of len(dst).
type unitFill func(dst []float64, unit, off, p int)

// familyEntropy returns H(AS) = −Σ_A P(A)·ln P(A) over the 2^(units·k)
// answer families, where unit u's k-bit answer pattern a_u occupies family
// bits [u·k, (u+1)·k) and P(A) = Σ_p q[p] · Π_u f_u(a_u | p), with the
// factors f_u supplied by fill.
//
// It runs the loops pattern-outside: for each pattern p with q[p] ≠ 0 it
// expands the units' factor vectors into the family tensor by repeated
// OuterMul (each unit lands in the high bits of the partial index) and
// adds the expansion into the per-family accumulator, which is then
// folded with −Σ XLogX. A space larger than block families is walked in
// contiguous, aligned blocks of block families (a power of two): within
// a block, a unit whose bits lie below the block's bits contributes its
// whole vector, a unit above them the one entry the block fixes, and the
// unit straddling the boundary the aligned slice the block covers.
//
// The result is bitwise the family-outside sweep
// `for A { pA = Σ_p q[p]·Π_u f_u; h −= XLogX(pA) }` (the tests keep that
// sweep as the oracle) at every block size: every family's product chain
// f_{units−1}·(…·(f_0·q[p])) is the sweep's ((q[p]·f_0)·…)·f_{units−1}
// term for term, since IEEE-754 multiplication is commutative per
// operation; AddTo sums each family's terms in the same ascending pattern
// order; and the blocks fold into one running sum in family order. Block
// size 1 is the constant-space sweep itself.
func familyEntropy(sc *evalScratch, q []float64, units, k, block int, fill unitFill) float64 {
	nFam := 1 << uint(units*k)
	block = min(block, nFam)
	sc.acc = grow(sc.acc, block)
	sc.ta = grow(sc.ta, block)
	sc.tb = grow(sc.tb, block)
	sc.v = grow(sc.v, min(1<<uint(k), block))
	acc := sc.acc
	var h float64
	for base := 0; base < nFam; base += block {
		clear(acc)
		for p, qp := range q {
			if qp != 0 {
				mathx.AddTo(acc, expandPattern(sc, qp, p, units, k, base, block, fill))
			}
		}
		for _, pA := range acc {
			h -= mathx.XLogX(pA)
		}
	}
	return h
}

// expandPattern returns, in sc.ta or sc.tb, the likelihoods
// qp · Π_u f_u(a_u | p) of the block families base, …, base+block−1. It
// is split from familyEntropy so the accumulate and fold loops there
// keep their counters in registers.
func expandPattern(sc *evalScratch, qp float64, p, units, k, base, block int, fill unitFill) []float64 {
	blockBits := bits.TrailingZeros(uint(block))
	spare := sc.tb
	cur := sc.ta[:1]
	cur[0] = qp
	for u := 0; u < units; u++ {
		span := min(k, max(blockBits-u*k, 0)) // unit u's bits inside the block
		v := sc.v[:1<<uint(span)]
		fill(v, u, (base>>uint(u*k))&(1<<uint(k)-1), p)
		dst := spare[:len(v)*len(cur)]
		mathx.OuterMul(dst, v, cur)
		spare = cur[:cap(cur)]
		cur = dst
	}
	return cur
}

// condEntropySymCore evaluates H(O|AS) for a symmetric crowd from the
// precomputed pieces: the task entropy H(O), the projection q of the
// belief onto the s query facts, the Hamming-distance likelihood tables,
// and the crowd's per-query answer entropy. Splitting the evaluation from
// the setup lets SelectionState memoize the crowd tables across calls;
// the arithmetic is identical to the inline form, so memoized and fresh
// evaluations agree bitwise. sc supplies the enumerator's buffers and
// must not be in use by another evaluation.
func condEntropySymCore(sc *evalScratch, entropy float64, q []float64, tables [][]float64, hPerQuery float64, s, w int) float64 {
	evalCount.Add(1)
	hAS := symFamilyEntropy(sc, q, tables, s, w, famBlock)

	// H(AS|O) = s · Σ_cr h(Pr_cr).
	hASgivenO := hPerQuery * float64(s)

	h := entropy - hAS + hASgivenO
	if h < 0 { // rounding: conditional entropy is non-negative
		h = 0
	}
	return h
}

// symFamilyEntropy is H(AS) for a symmetric crowd: expert cr's s-bit
// answer pattern a has factor table[popcount(a^p)], the Lemma 1
// likelihood of disagreeing with pattern p on that many queries.
func symFamilyEntropy(sc *evalScratch, q []float64, tables [][]float64, s, w, block int) float64 {
	return familyEntropy(sc, q, w, s, block, func(dst []float64, cr, off, p int) {
		tab := tables[cr]
		for i := range dst {
			dst[i] = tab[bits.OnesCount(uint((off+i)^p))]
		}
	})
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

// condEntropyAsymCore is the confusion-model counterpart of
// condEntropySymCore. The projection identity still holds — answers
// depend on the observation only through its pattern on T — but the
// per-answer terms are class-conditional (TPR/TNR), so the
// Hamming-distance tables are replaced by per-position factors and
// H(AS|O) becomes pattern-dependent:
// H(AS|O) = Σ_p q(p) Σ_cr Σ_j h(P(yes | p_j)).
func condEntropyAsymCore(sc *evalScratch, entropy float64, q []float64, pYes [][2]float64, s, w int) float64 {
	evalCount.Add(1)
	hAS := asymFamilyEntropy(sc, q, pYes, s, w, famBlock)

	// H(AS|O) = Σ_p q(p) Σ_cr Σ_j h(P(yes | p_j)); the per-(worker, truth)
	// Bernoulli entropies are computed once up front.
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

	h := entropy - hAS + hASgivenO
	if h < 0 {
		h = 0
	}
	return h
}

// asymFamilyEntropy is H(AS) for a confusion-model crowd. Worker cr's
// factor for answer pattern a is the subproduct Π_j f_j(a_j), f_j(1) =
// P(yes | p_j) and f_j(0) its complement, multiplied in query order: by
// progressive doubling over the query bits dst spans, then by the fixed
// factor of each higher bit that off sets.
func asymFamilyEntropy(sc *evalScratch, q []float64, pYes [][2]float64, s, w, block int) float64 {
	return familyEntropy(sc, q, w, s, block, func(dst []float64, cr, off, p int) {
		dst[0] = 1
		size := 1
		for j := 0; j < s; j++ {
			py := pYes[cr][(p>>uint(j))&1]
			no := 1 - py
			if size < len(dst) {
				for i := 0; i < size; i++ {
					vi := dst[i]
					dst[size+i] = py * vi
					dst[i] = no * vi
				}
				size <<= 1
				continue
			}
			f := no
			if off&(1<<uint(j)) != 0 {
				f = py
			}
			for i := range dst {
				dst[i] *= f
			}
		}
	})
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
	for _, wk := range ce {
		if err := wk.Validate(); err != nil {
			return 0, err
		}
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
