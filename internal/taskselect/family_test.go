package taskselect

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"hcrowd/internal/crowd"
	"hcrowd/internal/mathx"
	"hcrowd/internal/rngutil"
)

// The three constant-space family sweeps below are the oracles for
// familyEntropy: each visits the families in order, sums P(A) over the
// projection patterns with the likelihood built left to right, and folds
// −XLogX(P(A)) into H(AS). The enumerator must reproduce them bit for bit
// at every block size.

// symFamilyEntropyScalar is the symmetric-crowd sweep: expert cr's answer
// pattern is family bits [cr·s, (cr+1)·s).
func symFamilyEntropyScalar(q []float64, tables [][]float64, s, w int) float64 {
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
				like *= tables[cr][bits.OnesCount(uint(a^p))]
			}
			pA += like
		}
		hAS -= mathx.XLogX(pA)
	}
	return hAS
}

// asymFamilyEntropyScalar is the confusion-model sweep. Each worker's s
// per-query factors accumulate into a subproduct of their own before
// multiplying the likelihood.
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

// assignFamilyEntropyScalar is the sweep over the 2^n yes/no outcome
// vectors of the assigned answer variables.
func assignFamilyEntropyScalar(q []float64, pYes [][2]float64, pos []int) float64 {
	n := len(pos)
	var hAS float64
	nFam := 1 << uint(n)
	for fam := 0; fam < nFam; fam++ {
		var pA float64
		for p, qp := range q {
			if qp == 0 {
				continue
			}
			like := qp
			for i := 0; i < n; i++ {
				tv := (p >> uint(pos[i])) & 1
				py := pYes[i][tv]
				if fam&(1<<uint(i)) != 0 {
					like *= py
				} else {
					like *= 1 - py
				}
			}
			pA += like
		}
		hAS -= mathx.XLogX(pA)
	}
	return hAS
}

// randFamilyQ builds a normalized projection-like vector over 2^s
// patterns with a few exact zeros, as real projections have.
func randFamilyQ(seed int64, s int) []float64 {
	rng := rngutil.New(seed)
	q := make([]float64, 1<<uint(s))
	var sum float64
	for i := range q {
		if rng.Intn(5) == 0 {
			continue // exact zero: exercises the qp == 0 skip
		}
		q[i] = rng.Float64() + 1e-6
		sum += q[i]
	}
	if sum == 0 { // every draw was zero; a projection sums to 1
		q[0], sum = 1, 1
	}
	for i := range q {
		q[i] /= sum
	}
	return q
}

// randYesTable draws n per-unit rows pYes[i] = {P(yes | false),
// P(yes | true)} in the ranges valid workers produce.
func randYesTable(seed int64, n int) [][2]float64 {
	rng := rngutil.New(seed)
	pYes := make([][2]float64, n)
	for i := range pYes {
		pYes[i][0] = 0.05 + 0.4*rng.Float64()
		pYes[i][1] = 0.55 + 0.4*rng.Float64()
	}
	return pYes
}

// randAccuracies draws w symmetric accuracies in [0.55, 0.99).
func randAccuracies(seed int64, w int) []float64 {
	rng := rngutil.New(seed)
	accs := make([]float64, w)
	for i := range accs {
		accs[i] = 0.55 + 0.44*rng.Float64()
	}
	return accs
}

// sameBitsAtEveryBlock requires enum(block) to equal the oracle value bit
// for bit at every power-of-two block size from 1 to nFam, which splits
// the family space between units and inside one unit's factor vector.
func sameBitsAtEveryBlock(t *testing.T, label string, oracle float64, nFam int, enum func(block int) float64) {
	t.Helper()
	for block := 1; block <= nFam; block <<= 1 {
		if got := enum(block); math.Float64bits(got) != math.Float64bits(oracle) {
			t.Fatalf("%s block %d: enumerator %v (%x) != oracle %v (%x)",
				label, block, got, math.Float64bits(got), oracle, math.Float64bits(oracle))
		}
	}
}

// TestSymFamilyEntropyBatchBitwiseScalar pins the enumerator's contract
// for a symmetric crowd: familyEntropy with the Hamming-distance fill
// must equal the scalar sweep bit for bit at every block size, and at the
// production block size on a space larger than one block.
func TestSymFamilyEntropyBatchBitwiseScalar(t *testing.T) {
	cases := []struct{ s, w int }{
		{1, 2}, // 4 families: the round-start singleton shape
		{2, 2}, // 16
		{3, 2}, // 64
		{2, 4}, // 256
		{4, 3}, // 4096
	}
	sc := new(evalScratch)
	for _, tc := range cases {
		t.Run(fmt.Sprintf("s=%d_w=%d", tc.s, tc.w), func(t *testing.T) {
			accs := []float64{0.8, 0.88, 0.93, 0.97}[:tc.w]
			tables := likelihoodTables(experts(accs...), tc.s)
			for seed := int64(0); seed < 4; seed++ {
				q := randFamilyQ(seed, tc.s)
				sameBitsAtEveryBlock(t, fmt.Sprintf("seed %d", seed),
					symFamilyEntropyScalar(q, tables, tc.s, tc.w), 1<<uint(tc.s*tc.w),
					func(block int) float64 { return symFamilyEntropy(sc, q, tables, tc.s, tc.w, block) })
			}
		})
	}
	t.Run("s=1_w=21", func(t *testing.T) {
		const s, w = 1, 21 // 2^21 families: two production blocks
		tables := likelihoodTables(experts(randAccuracies(7, w)...), s)
		q := randFamilyQ(3, s)
		want := symFamilyEntropyScalar(q, tables, s, w)
		if got := symFamilyEntropy(sc, q, tables, s, w, famBlock); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("enumerator %v != oracle %v", got, want)
		}
	})
}

// TestAsymFamilyEntropyBatchBitwiseScalar is the confusion-model twin:
// the oracle groups each worker's per-query factors into a subproduct
// with the same chain shape as the enumerator's progressive-doubling
// fill, including the fixed high bits of a split factor vector.
func TestAsymFamilyEntropyBatchBitwiseScalar(t *testing.T) {
	ce := crowd.Crowd{
		{ID: "A", TPR: 0.9, TNR: 0.75},
		{ID: "B", TPR: 0.82, TNR: 0.95},
		{ID: "C", TPR: 0.97, TNR: 0.88},
	}
	pYes := asymYesTable(ce)
	cases := []struct{ s, w int }{
		{1, 2}, // 4 families
		{2, 3}, // 64
		{3, 3}, // 512
		{4, 2}, // 256
	}
	sc := new(evalScratch)
	for _, tc := range cases {
		t.Run(fmt.Sprintf("s=%d_w=%d", tc.s, tc.w), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				q := randFamilyQ(seed+10, tc.s)
				sameBitsAtEveryBlock(t, fmt.Sprintf("seed %d", seed),
					asymFamilyEntropyScalar(q, pYes[:tc.w], tc.s, tc.w), 1<<uint(tc.s*tc.w),
					func(block int) float64 { return asymFamilyEntropy(sc, q, pYes[:tc.w], tc.s, tc.w, block) })
			}
		})
	}
	t.Run("s=1_w=21", func(t *testing.T) {
		const s, w = 1, 21
		pYes := randYesTable(9, w)
		q := randFamilyQ(4, s)
		want := asymFamilyEntropyScalar(q, pYes, s, w)
		if got := asymFamilyEntropy(sc, q, pYes, s, w, famBlock); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("enumerator %v != oracle %v", got, want)
		}
	})
}

// TestAssignFamilyEntropyBatchBitwiseScalar covers the per-unit
// assignment enumeration, where each answer variable contributes a
// two-point factor vector.
func TestAssignFamilyEntropyBatchBitwiseScalar(t *testing.T) {
	sc := new(evalScratch)
	for _, n := range []int{2, 5, 6, 9} { // 4 .. 512 families
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rngutil.New(int64(n))
			for seed := int64(0); seed < 4; seed++ {
				s := 3
				q := randFamilyQ(seed+20, s)
				pYes := randYesTable(seed+int64(100*n), n)
				pos := make([]int, n)
				for i := range pos {
					pos[i] = rng.Intn(s)
				}
				sameBitsAtEveryBlock(t, fmt.Sprintf("seed %d", seed),
					assignFamilyEntropyScalar(q, pYes, pos), 1<<uint(n),
					func(block int) float64 { return assignFamilyEntropy(sc, q, pYes, pos, block) })
			}
		})
	}
}

// FuzzFamilyEntropy fuzzes the enumerator against the three oracles over
// the shape (sym, asym or assign), its size, the block size and the
// seed of the projection and worker rates, requiring equal bits.
func FuzzFamilyEntropy(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(2), uint8(0), int64(1))
	f.Add(uint8(1), uint8(3), uint8(2), uint8(3), int64(2))
	f.Add(uint8(2), uint8(7), uint8(3), uint8(5), int64(3))
	f.Fuzz(func(t *testing.T, shape, size, aux, blockLog uint8, seed int64) {
		sc := new(evalScratch)
		var nBits int
		var oracle float64
		var enum func(block int) float64
		switch shape % 3 {
		case 0, 1: // sym, asym: s queries × w experts, at most 12 family bits
			s, w := 1+int(size)%4, 1+int(aux)%4
			if s*w > 12 {
				w = 12 / s
			}
			nBits = s * w
			q := randFamilyQ(seed, s)
			if shape%3 == 0 {
				tables := likelihoodTables(experts(randAccuracies(seed, w)...), s)
				oracle = symFamilyEntropyScalar(q, tables, s, w)
				enum = func(block int) float64 { return symFamilyEntropy(sc, q, tables, s, w, block) }
			} else {
				pYes := randYesTable(seed, w)
				oracle = asymFamilyEntropyScalar(q, pYes, s, w)
				enum = func(block int) float64 { return asymFamilyEntropy(sc, q, pYes, s, w, block) }
			}
		default: // assign: n units over s facts
			n, s := 1+int(size)%10, 1+int(aux)%3
			nBits = n
			q := randFamilyQ(seed, s)
			pYes := randYesTable(seed, n)
			pos := make([]int, n)
			rng := rngutil.New(seed)
			for i := range pos {
				pos[i] = rng.Intn(s)
			}
			oracle = assignFamilyEntropyScalar(q, pYes, pos)
			enum = func(block int) float64 { return assignFamilyEntropy(sc, q, pYes, pos, block) }
		}
		block := 1 << (int(blockLog) % (nBits + 1))
		if got := enum(block); math.Float64bits(got) != math.Float64bits(oracle) {
			t.Fatalf("shape %d bits %d block %d: enumerator %v != oracle %v",
				shape%3, nBits, block, got, oracle)
		}
	})
}
