package aggregate

import (
	"math"

	"hcrowd/internal/dataset"
	"hcrowd/internal/mathx"
)

// EBCC is the enhanced Bayesian classifier combination of Li et al. [30]:
// every true class is refined into latent subtypes, and workers have
// subtype-specific confusions, which captures correlation between workers
// (two workers who confuse the same subtype err together — the effect
// plain BCC and DS cannot represent). Inference is mean-field variational:
// q(z_f, g_f) over the (class, subtype) pair per fact, Dirichlet
// posteriors over the class-subtype proportions and Beta posteriors over
// each worker's per-subtype accuracy, with digamma-based expectations.
type EBCC struct {
	Seed     int64
	Subtypes int
	MaxIter  int
	Tol      float64
	// AlphaPrior is the Dirichlet hyperparameter over (class, subtype)
	// proportions; BetaDiag/BetaOff are the Beta hyperparameters on each
	// worker's subtype-specific accuracy.
	AlphaPrior, BetaDiag, BetaOff float64
}

// NewEBCC returns EBCC with the published defaults (two subtypes per
// class). Inference is deterministic; the seed is kept for interface
// parity with the sampling-based baselines.
func NewEBCC(seed int64) EBCC {
	return EBCC{
		Seed: seed, Subtypes: 2, MaxIter: 600, Tol: 1e-4,
		AlphaPrior: 1, BetaDiag: 6, BetaOff: 1,
	}
}

// Name implements Aggregator.
func (EBCC) Name() string { return "EBCC" }

// Aggregate implements Aggregator.
func (a EBCC) Aggregate(m *dataset.Matrix) (*Result, error) {
	if err := validate(m); err != nil {
		return nil, err
	}
	if a.Subtypes < 1 {
		a.Subtypes = 1
	}
	nF, nW := m.NumFacts(), m.NumWorkers()
	M := a.Subtypes
	K := 2 * M // latent states: class (0/1) × subtype

	// q[f][s]: variational posterior over latent state s = class*M + sub.
	// Initialization anchors each fact's class mass to its majority-vote
	// share and breaks the subtype symmetry with a small deterministic
	// tilt toward the first subtype. Random jitter is deliberately
	// avoided: on weak crowds it can seed a label-flipped mode that
	// mean-field then locks in.
	q := make([][]float64, nF)
	for f := range q {
		share, _ := m.VoteShare(f)
		share = mathx.Clamp(share, 0.02, 0.98)
		q[f] = make([]float64, K)
		for s := 0; s < K; s++ {
			cls, sub := s/M, s%M
			base := 1 - share
			if cls == 1 {
				base = share
			}
			tilt := 1 + 0.05*float64(M-sub)
			q[f][s] = base * tilt / float64(M)
		}
		mathx.Normalize(q[f])
	}

	prevP := make([]float64, nF)
	pTrue := make([]float64, nF)
	iter := 0
	converged := false
	elogRho := make([]float64, K)
	// elogTau[w][s][a]: E[log P(worker w answers a | state s)].
	elogTau := make([][][2]float64, nW)
	for w := range elogTau {
		elogTau[w] = make([][2]float64, K)
	}
	alpha := make([]float64, K)
	logw := make([]float64, K)
	for ; iter < a.MaxIter; iter++ {
		// Variational M-step: Dirichlet posterior over states.
		mathx.Fill(alpha, a.AlphaPrior/float64(M))
		for f := 0; f < nF; f++ {
			for s := 0; s < K; s++ {
				alpha[s] += q[f][s]
			}
		}
		sumAlpha := mathx.Sum(alpha)
		digSum := mathx.Digamma(sumAlpha)
		for s := 0; s < K; s++ {
			elogRho[s] = mathx.Digamma(alpha[s]) - digSum
		}
		// Cap any single state's prior share at one half: an
		// uninformative ("garbage") subtype otherwise grows its
		// proportion and absorbs every mixed-vote fact, a degenerate
		// rich-get-richer attractor on weak crowds. No legitimate
		// (class, subtype) pair needs more than half the corpus.
		maxRho := mathx.Log(0.5)
		for s := 0; s < K; s++ {
			if elogRho[s] > maxRho {
				elogRho[s] = maxRho
			}
		}
		// Beta posteriors for every worker × state over the probability of
		// answering YES in that state. The prior is oriented by the
		// state's class (class-1 states expect Yes, class-0 states expect
		// No), which encodes the paper's Pr >= 1/2 error model as a prior
		// rather than a hard projection: a worker who answers Yes for
		// both classes (a spammer) learns a high yes-rate in *both* and
		// becomes uninformative, instead of being misread as class-1
		// evidence.
		for w := 0; w < nW; w++ {
			for s := 0; s < K; s++ {
				cls := s / M
				yes, no := a.BetaOff, a.BetaDiag
				if cls == 1 {
					yes, no = a.BetaDiag, a.BetaOff
				}
				for _, o := range m.ByWorker(w) {
					if o.Value {
						yes += q[o.Fact][s]
					} else {
						no += q[o.Fact][s]
					}
				}
				digAll := mathx.Digamma(yes + no)
				elogTau[w][s][1] = mathx.Digamma(yes) - digAll
				elogTau[w][s][0] = mathx.Digamma(no) - digAll
			}
		}
		// Variational E-step, damped: synchronous mean-field updates can
		// enter period-two oscillations on weak crowds, and averaging the
		// new responsibilities with the previous ones restores the
		// fixed-point convergence.
		for f := 0; f < nF; f++ {
			copy(logw, elogRho)
			for _, o := range m.ByFact(f) {
				ai := btoi(o.Value)
				for s := 0; s < K; s++ {
					logw[s] += elogTau[o.Worker][s][ai]
				}
			}
			mathx.SoftmaxInPlace(logw)
			for s := 0; s < K; s++ {
				q[f][s] = 0.5*q[f][s] + 0.5*logw[s]
			}
		}
		for f := 0; f < nF; f++ {
			var pt float64
			for s := M; s < K; s++ {
				pt += q[f][s]
			}
			pTrue[f] = pt
		}
		if iter > 0 && mathx.MaxAbsDiff(pTrue, prevP) < a.Tol {
			converged = true
			iter++
			break
		}
		copy(prevP, pTrue)
	}

	// Worker accuracy: posterior-mean agreement with the inferred state
	// mixture.
	acc := make([]float64, nW)
	for w := 0; w < nW; w++ {
		var agree, n float64
		for _, o := range m.ByWorker(w) {
			n++
			if o.Value {
				agree += pTrue[o.Fact]
			} else {
				agree += 1 - pTrue[o.Fact]
			}
		}
		if n == 0 {
			acc[w] = 0.5
			continue
		}
		acc[w] = (agree + a.BetaDiag) / (n + a.BetaDiag + a.BetaOff)
	}
	// Guard against NaN leakage from degenerate digamma inputs.
	for f, p := range pTrue {
		if math.IsNaN(p) {
			pTrue[f] = 0.5
		}
	}
	return &Result{PTrue: mathx.Clone(pTrue), WorkerAcc: acc, Iterations: iter, Converged: converged}, nil
}
