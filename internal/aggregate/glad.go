package aggregate

import (
	"math"

	"hcrowd/internal/dataset"
	"hcrowd/internal/mathx"
)

// GLAD is the Whitehill et al. model [33]: each worker has an ability
// α_w ∈ (-∞, ∞) and each fact a difficulty encoded as β_f = exp(γ_f) > 0;
// the probability that worker w labels fact f correctly is
// σ(α_w · β_f). Inference is EM whose M-step has no closed form, so it
// runs a few steps of gradient ascent on the expected complete-data
// log-likelihood with respect to α and γ (the log-difficulty), exactly as
// the published implementation does.
type GLAD struct {
	MaxIter   int
	Tol       float64
	GradSteps int
	LearnRate float64
}

// NewGLAD returns GLAD with the published defaults.
func NewGLAD() GLAD {
	return GLAD{MaxIter: 50, Tol: 1e-5, GradSteps: 10, LearnRate: 0.05}
}

// Name implements Aggregator.
func (GLAD) Name() string { return "GLAD" }

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Aggregate implements Aggregator.
func (a GLAD) Aggregate(m *dataset.Matrix) (*Result, error) {
	if err := validate(m); err != nil {
		return nil, err
	}
	nF, nW := m.NumFacts(), m.NumWorkers()
	mu := make([]float64, nF)
	for f := range mu {
		share, _ := m.VoteShare(f)
		mu[f] = share
	}
	alpha := make([]float64, nW)
	mathx.Fill(alpha, 1)
	gamma := make([]float64, nF) // beta = exp(gamma), starts at 1
	prev := mathx.Clone(mu)
	logw := make([]float64, 2)
	gradA := make([]float64, nW)
	gradG := make([]float64, nF)
	iter := 0
	converged := false
	for ; iter < a.MaxIter; iter++ {
		// E-step: posterior over each fact given abilities/difficulties.
		for f := 0; f < nF; f++ {
			beta := math.Exp(gamma[f])
			lt, lf := math.Log(0.5), math.Log(0.5)
			for _, o := range m.ByFact(f) {
				p := mathx.Clamp(sigmoid(alpha[o.Worker]*beta), 1e-9, 1-1e-9)
				if o.Value {
					lt += math.Log(p)
					lf += math.Log(1 - p)
				} else {
					lt += math.Log(1 - p)
					lf += math.Log(p)
				}
			}
			logw[0], logw[1] = lf, lt
			mathx.SoftmaxInPlace(logw)
			mu[f] = logw[1]
		}
		// M-step: gradient ascent on E[log p(labels | α, β)].
		for step := 0; step < a.GradSteps; step++ {
			clear(gradA)
			clear(gradG)
			for f := 0; f < nF; f++ {
				beta := math.Exp(gamma[f])
				for _, o := range m.ByFact(f) {
					// q = posterior probability this answer is correct.
					var q float64
					if o.Value {
						q = mu[f]
					} else {
						q = 1 - mu[f]
					}
					s := sigmoid(alpha[o.Worker] * beta)
					diff := q - s
					gradA[o.Worker] += beta * diff
					gradG[f] += alpha[o.Worker] * beta * diff
				}
			}
			for w := 0; w < nW; w++ {
				// Gaussian prior N(1,1) on ability regularizes workers
				// with few answers.
				alpha[w] += a.LearnRate * (gradA[w] - (alpha[w] - 1))
			}
			for f := 0; f < nF; f++ {
				gamma[f] += a.LearnRate * (gradG[f] - gamma[f]) // N(0,1) prior
			}
		}
		if mathx.MaxAbsDiff(mu, prev) < a.Tol {
			converged = true
			iter++
			break
		}
		copy(prev, mu)
	}
	// Report ability as an accuracy on the average-difficulty task.
	var meanBeta float64
	for _, g := range gamma {
		meanBeta += math.Exp(g)
	}
	meanBeta /= float64(nF)
	acc := make([]float64, nW)
	for w := range acc {
		acc[w] = sigmoid(alpha[w] * meanBeta)
	}
	return &Result{PTrue: mu, WorkerAcc: acc, Iterations: iter, Converged: converged}, nil
}
