package taskselect

import (
	"context"
	"errors"
	"math"
	"testing"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/rngutil"
)

var tableI = []float64{0.09, 0.11, 0.10, 0.20, 0.08, 0.09, 0.15, 0.18}

func tableIDist(t *testing.T) *belief.Dist {
	t.Helper()
	d, err := belief.FromJoint(tableI)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

// randomDist builds a random joint belief over m facts.
func randomDist(t *testing.T, seed int64, m int) *belief.Dist {
	t.Helper()
	rng := rngutil.New(seed)
	raw := make([]float64, 1<<uint(m))
	for i := range raw {
		raw[i] = rng.Float64() + 1e-4
	}
	d, err := belief.FromJoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func experts(accs ...float64) crowd.Crowd {
	c := make(crowd.Crowd, len(accs))
	for i, a := range accs {
		c[i] = crowd.Worker{ID: string(rune('A' + i)), Accuracy: a}
	}
	return c
}

func TestCondEntropyEmptyQuerySet(t *testing.T) {
	d := tableIDist(t)
	h, err := CondEntropy(d, experts(0.9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(h, d.Entropy(), 1e-12) {
		t.Errorf("H(O|∅) = %v, want H(O) = %v", h, d.Entropy())
	}
}

func TestCondEntropyMatchesNaive(t *testing.T) {
	// The optimized identity-based evaluator must agree with the
	// direct-from-definition evaluator on random instances.
	for seed := int64(0); seed < 25; seed++ {
		rng := rngutil.New(1000 + seed)
		m := 2 + rng.Intn(3) // 2..4 facts
		d := randomDist(t, seed, m)
		nExperts := 1 + rng.Intn(2)
		accs := make([]float64, nExperts)
		for i := range accs {
			accs[i] = 0.5 + 0.5*rng.Float64()
		}
		ce := experts(accs...)
		// Random query subset of size 1..m.
		s := 1 + rng.Intn(m)
		perm := rng.Perm(m)
		facts := perm[:s]

		fast, err := CondEntropy(d, ce, facts)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := CondEntropyNaive(d, ce, facts)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(fast, naive, 1e-9) {
			t.Errorf("seed %d: fast %v != naive %v (m=%d, |T|=%d, CE=%v)",
				seed, fast, naive, m, s, accs)
		}
	}
}

func TestCondEntropyNeverExceedsPrior(t *testing.T) {
	// Conditioning on answers cannot increase entropy in expectation.
	for seed := int64(0); seed < 20; seed++ {
		d := randomDist(t, 2000+seed, 3)
		ce := experts(0.7, 0.92)
		for _, facts := range [][]int{{0}, {1}, {2}, {0, 1}, {0, 2}, {0, 1, 2}} {
			h, err := CondEntropy(d, ce, facts)
			if err != nil {
				t.Fatal(err)
			}
			if h > d.Entropy()+1e-9 {
				t.Errorf("seed %d T=%v: H(O|AS)=%v > H(O)=%v", seed, facts, h, d.Entropy())
			}
		}
	}
}

func TestCondEntropyMonotoneInQuerySet(t *testing.T) {
	// Adding a query can only (weakly) decrease the conditional entropy.
	d := tableIDist(t)
	ce := experts(0.85, 0.95)
	h1, _ := CondEntropy(d, ce, []int{0})
	h2, _ := CondEntropy(d, ce, []int{0, 1})
	h3, _ := CondEntropy(d, ce, []int{0, 1, 2})
	if h2 > h1+1e-12 || h3 > h2+1e-12 {
		t.Errorf("not monotone: %v, %v, %v", h1, h2, h3)
	}
}

func TestCondEntropyOracleRevealsMarginal(t *testing.T) {
	// A single oracle answering fact f removes exactly the marginal
	// entropy of f: H(O|AS^{f}) = H(O) − h(P(f)).
	d := tableIDist(t)
	oracle := experts(1.0)
	for f := 0; f < 3; f++ {
		h, err := CondEntropy(d, oracle, []int{f})
		if err != nil {
			t.Fatal(err)
		}
		want := d.Entropy() - d.FactEntropy(f)
		if !almostEqual(h, want, 1e-9) {
			t.Errorf("fact %d: H(O|oracle) = %v, want %v", f, h, want)
		}
	}
}

func TestCondEntropyNeutralExpertNoGain(t *testing.T) {
	// A 0.5-accuracy expert's answers are pure noise: no entropy reduction.
	d := tableIDist(t)
	h, err := CondEntropy(d, experts(0.5), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(h, d.Entropy(), 1e-9) {
		t.Errorf("H(O|noise) = %v, want H(O) = %v", h, d.Entropy())
	}
	g, _ := QualityGain(d, experts(0.5), []int{0, 1})
	if g > 1e-9 {
		t.Errorf("gain from noise = %v, want 0", g)
	}
}

func TestCondEntropyMoreAccurateExpertGainsMore(t *testing.T) {
	d := tableIDist(t)
	var prev = math.Inf(1)
	for _, acc := range []float64{0.55, 0.7, 0.85, 0.95, 1.0} {
		h, err := CondEntropy(d, experts(acc), []int{0, 2})
		if err != nil {
			t.Fatal(err)
		}
		if h > prev+1e-12 {
			t.Errorf("accuracy %v did not reduce entropy further: %v > %v", acc, h, prev)
		}
		prev = h
	}
}

func TestCondEntropyMoreExpertsGainMore(t *testing.T) {
	d := tableIDist(t)
	h1, _ := CondEntropy(d, experts(0.8), []int{1})
	h2, _ := CondEntropy(d, experts(0.8, 0.8), []int{1})
	h3, _ := CondEntropy(d, experts(0.8, 0.8, 0.8), []int{1})
	if !(h3 < h2 && h2 < h1) {
		t.Errorf("redundant experts do not help: %v, %v, %v", h1, h2, h3)
	}
}

func TestTheorem1Identity(t *testing.T) {
	// ΔQ(F|T) computed through the conditional-entropy identity must match
	// the brute-force Definition 5 expectation Σ_A P(A)·Q(F|A) − Q(F).
	for seed := int64(0); seed < 10; seed++ {
		d := randomDist(t, 3000+seed, 3)
		ce := experts(0.8, 0.93)
		facts := []int{0, 2}
		s := len(facts)
		w := len(ce)

		var expQ float64
		nFam := 1 << uint(s*w)
		mask := (1 << uint(s)) - 1
		for famIdx := 0; famIdx < nFam; famIdx++ {
			fam := make(crowd.AnswerFamily, w)
			for cr := 0; cr < w; cr++ {
				a := (famIdx >> uint(cr*s)) & mask
				vals := make([]bool, s)
				for j := 0; j < s; j++ {
					vals[j] = a&(1<<uint(j)) != 0
				}
				fam[cr] = crowd.AnswerSet{Worker: ce[cr], Facts: facts, Values: vals}
			}
			pA, err := d.AnswerFamilyProb(fam)
			if err != nil {
				t.Fatal(err)
			}
			if pA == 0 {
				continue
			}
			post := d.Clone()
			if err := post.Update(fam); err != nil {
				t.Fatal(err)
			}
			expQ += pA * post.Quality()
		}
		bruteGain := expQ - d.Quality()

		gain, err := QualityGain(d, ce, facts)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(gain, bruteGain, 1e-9) {
			t.Errorf("seed %d: Theorem 1 gain %v != brute force %v", seed, gain, bruteGain)
		}
		eq, err := ExpectedQuality(d, ce, facts)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(eq, expQ, 1e-9) {
			t.Errorf("seed %d: ExpectedQuality %v != brute force %v", seed, eq, expQ)
		}
	}
}

func TestCondEntropyErrors(t *testing.T) {
	d := tableIDist(t)
	if _, err := CondEntropy(d, nil, []int{0}); err == nil {
		t.Error("empty expert crowd accepted")
	}
	if _, err := CondEntropy(d, experts(0.9), []int{7}); err == nil {
		t.Error("out-of-range fact accepted")
	}
	if _, err := CondEntropy(d, experts(0.9), []int{0, 0}); err == nil {
		t.Error("duplicate fact accepted")
	}
	// Invalid workers: both evaluators must refuse them rather than
	// return NaN or a meaningless finite value.
	for _, wk := range []crowd.Worker{
		{ID: "hi", Accuracy: 1.5},
		{ID: "nan", Accuracy: math.NaN()},
		{ID: "low", Accuracy: 0.2},
		{ID: "tpr", TPR: 2, TNR: 0.9},
	} {
		ce := crowd.Crowd{{ID: "ok", Accuracy: 0.9}, wk}
		if h, err := CondEntropy(d, ce, []int{0}); err == nil {
			t.Errorf("worker %q accepted: H = %v", wk.ID, h)
		}
		if h, err := CondEntropyNaive(d, ce, []int{0}); err == nil {
			t.Errorf("naive: worker %q accepted: H = %v", wk.ID, h)
		}
		if h, err := QualityGain(d, ce, []int{0}); err == nil {
			t.Errorf("QualityGain: worker %q accepted: gain = %v", wk.ID, h)
		}
	}
	// |T|·|CE| over the enumeration cap, refused at every entry point
	// before any enumeration.
	big := experts(0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9)
	if _, err := CondEntropy(d, big, []int{0, 1, 2}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized family space: err = %v, want ErrTooLarge", err)
	}
	if _, err := CondEntropyNaive(d, big, []int{0, 1, 2}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("naive: oversized family space: err = %v, want ErrTooLarge", err)
	}
	accs := make([]float64, maxFamilyBits+1)
	for i := range accs {
		accs[i] = 0.9
	}
	wide := experts(accs...) // 27 experts: 2^27 families for one query
	var assigns []Assign
	for _, wk := range wide {
		assigns = append(assigns, Assign{Fact: 0, Worker: wk})
	}
	if _, err := CondEntropyAssign(d, assigns); !errors.Is(err, ErrTooLarge) {
		t.Errorf("assign: %d units: err = %v, want ErrTooLarge", len(assigns), err)
	}
	ctx := context.Background()
	p := Problem{Beliefs: []*belief.Dist{d}, Experts: wide}
	if _, err := (Greedy{}).Select(ctx, p, 1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Greedy on %d experts: err = %v, want ErrTooLarge", len(wide), err)
	}
	if _, err := NewSelectionState(1).Select(ctx, p, 1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("SelectionState on %d experts: err = %v, want ErrTooLarge", len(wide), err)
	}
}

func TestQualityGainNonNegative(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d := randomDist(t, 4000+seed, 4)
		rng := rngutil.New(5000 + seed)
		ce := experts(0.5+0.5*rng.Float64(), 0.5+0.5*rng.Float64())
		facts := []int{rng.Intn(4)}
		g, err := QualityGain(d, ce, facts)
		if err != nil {
			t.Fatal(err)
		}
		if g < 0 {
			t.Errorf("seed %d: negative gain %v", seed, g)
		}
	}
}

func TestCondEntropySubmodularity(t *testing.T) {
	// Diminishing returns: gain of adding f to a smaller set is at least
	// the gain of adding it to a superset. This is the property the
	// (1−1/e) greedy guarantee rests on (§III-C).
	for seed := int64(0); seed < 15; seed++ {
		d := randomDist(t, 6000+seed, 4)
		ce := experts(0.88, 0.95)
		hEmpty := d.Entropy()
		h3, _ := CondEntropy(d, ce, []int{3})
		h03, _ := CondEntropy(d, ce, []int{0, 3})
		h0, _ := CondEntropy(d, ce, []int{0})
		gainSmall := hEmpty - h3 // adding 3 to ∅
		gainLarge := h0 - h03    // adding 3 to {0}
		if gainLarge > gainSmall+1e-9 {
			t.Errorf("seed %d: submodularity violated: %v > %v", seed, gainLarge, gainSmall)
		}
	}
}
