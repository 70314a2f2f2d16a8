package taskselect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/mathx"
)

// Assign is one answer unit within a task: a specific expert answering a
// specific local fact. The paper's model sends every query to every
// expert; §III-D's cost extension ("the cost is related to his/her
// accuracy rate … the optimization and approximation algorithms need to
// be re-designed") makes the assignment itself part of the optimization,
// which this file implements.
type Assign struct {
	Fact   int
	Worker crowd.Worker
}

// TaskAssign is an assignment unit in a multi-task problem.
type TaskAssign struct {
	Task   int
	Fact   int
	Worker crowd.Worker
}

// CondEntropyAssign computes H(O | {A_{cr,f}}) for an arbitrary set of
// per-expert, per-fact answer variables within one task — the
// generalization of CondEntropy beyond "every expert answers every
// query". The projection identity still applies: every answer depends on
// the observation only through its fact's truth value.
func CondEntropyAssign(d *belief.Dist, assigns []Assign) (float64, error) {
	if len(assigns) == 0 {
		return d.Entropy(), nil
	}
	seen := make(map[string]map[int]bool)
	facts := make([]int, 0, len(assigns))
	factSet := make(map[int]bool)
	for _, a := range assigns {
		if err := a.Worker.Validate(); err != nil {
			return 0, err
		}
		if a.Fact < 0 || a.Fact >= d.NumFacts() {
			return 0, fmt.Errorf("taskselect: assigned fact %d outside task with %d facts", a.Fact, d.NumFacts())
		}
		if seen[a.Worker.ID] == nil {
			seen[a.Worker.ID] = make(map[int]bool)
		}
		if seen[a.Worker.ID][a.Fact] {
			return 0, fmt.Errorf("taskselect: duplicate assignment %s->f%d", a.Worker.ID, a.Fact)
		}
		seen[a.Worker.ID][a.Fact] = true
		if !factSet[a.Fact] {
			factSet[a.Fact] = true
			facts = append(facts, a.Fact)
		}
	}
	if len(assigns) > maxFamilyBits {
		return 0, fmt.Errorf("%w: %d answer variables", ErrTooLarge, len(assigns))
	}
	sort.Ints(facts)
	factPos := make(map[int]int, len(facts))
	for i, f := range facts {
		factPos[f] = i
	}
	q := projection(d, facts)

	// pYes[i][tv]: P(assign i answers Yes | its fact's truth is tv).
	pYes := make([][2]float64, len(assigns))
	pos := make([]int, len(assigns))
	for i, a := range assigns {
		pYes[i][1] = a.Worker.PCorrect(true)
		pYes[i][0] = 1 - a.Worker.PCorrect(false)
		pos[i] = factPos[a.Fact]
	}
	sc := getScratch()
	defer putScratch(sc)
	return condEntropyAssignCore(sc, d.Entropy(), q, pYes, pos), nil
}

// condEntropyAssignCore is the evaluation half of CondEntropyAssign,
// split out (like condEntropySymCore) so AssignState can memoize the
// projection and the per-worker yes probabilities across calls. The
// arithmetic is identical to the inline form, so memoized and fresh
// evaluations agree bitwise; pos[i] is the bit position of assign i's
// fact in q's pattern space. It bumps the package eval counter — the
// cost unit the incremental-assignment benchmarks compare by. sc
// supplies the enumerator's buffers and must not be in use by another
// evaluation; pYes and pos may live in its pyes and pos.
func condEntropyAssignCore(sc *evalScratch, entropy float64, q []float64, pYes [][2]float64, pos []int) float64 {
	evalCount.Add(1)
	n := len(pos)
	hAS := assignFamilyEntropy(sc, q, pYes, pos, famBlock)

	// H(AS|O) = Σ_p q(p) Σ_i h(P(assign i answers yes | p)); the per-unit
	// Bernoulli entropies are computed once up front.
	sc.hB = grow(sc.hB, n)
	hB := sc.hB
	for i := 0; i < n; i++ {
		hB[i][0] = mathx.BernoulliEntropy(pYes[i][0])
		hB[i][1] = mathx.BernoulliEntropy(pYes[i][1])
	}
	var hASgivenO float64
	for p, qp := range q {
		if qp == 0 {
			continue
		}
		var hp float64
		for i := 0; i < n; i++ {
			hp += hB[i][(p>>uint(pos[i]))&1]
		}
		hASgivenO += qp * hp
	}

	h := entropy - hAS + hASgivenO
	if h < 0 {
		h = 0
	}
	return h
}

// assignFamilyEntropy is H(AS) over the 2^n yes/no outcome vectors of the
// assigned answer variables: unit i is family bit i, with the two-point
// factor vector [1−py, py] for py = P(yes | its fact's truth in p).
func assignFamilyEntropy(sc *evalScratch, q []float64, pYes [][2]float64, pos []int, block int) float64 {
	return familyEntropy(sc, q, len(pos), 1, block, func(dst []float64, i, off, p int) {
		py := pYes[i][(p>>uint(pos[i]))&1]
		v := [2]float64{1 - py, py}
		for j := range dst {
			dst[j] = v[off+j]
		}
	})
}

// AssignSelector chooses assignment units — (task, fact, worker)
// answer purchases — totaling at most budget in cost. CostGreedy is the
// stateless implementation; AssignState is the incremental one with
// cross-round gain caching, pick-identical to CostGreedy.
type AssignSelector interface {
	// Name identifies the selector in experiment output.
	Name() string
	SelectAssign(ctx context.Context, p Problem, budget float64) ([]TaskAssign, error)
}

// CostGreedy selects assignment units greedily by gain-per-cost until the
// budget is exhausted: the budgeted-submodular extension of Algorithm 2
// that §III-D leaves as future work. Each unit's marginal gain is the
// conditional-entropy drop of adding that expert's answer on that fact to
// the task's current assignment; the unit's cost comes from the cost
// function (unit cost when nil).
type CostGreedy struct {
	// Cost prices one answer from a worker; nil means 1 per answer.
	Cost func(w crowd.Worker) float64
	// MaxAssignsPerTask caps the answer variables accumulated in one task
	// (the enumeration is exponential in them); default 12.
	MaxAssignsPerTask int
}

// Name identifies the selector in experiment output.
func (CostGreedy) Name() string { return "CostGreedy" }

// SelectAssign chooses assignment units totaling at most budget in cost.
// It returns fewer when no remaining affordable unit has positive gain.
func (g CostGreedy) SelectAssign(ctx context.Context, p Problem, budget float64) ([]TaskAssign, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if budget <= 0 {
		return nil, nil
	}
	maxPer := maxAssigns(g.MaxAssignsPerTask)
	cost := g.Cost
	if cost == nil {
		cost = func(crowd.Worker) float64 { return 1 }
	}
	for _, w := range p.Experts {
		if !(cost(w) > 0) { // also rejects NaN
			return nil, errors.New("taskselect: worker cost must be positive")
		}
	}
	current := make(map[int][]Assign) // task -> chosen units
	baseH := make([]float64, len(p.Beliefs))
	for t, d := range p.Beliefs {
		baseH[t] = d.Entropy()
	}
	var picks []TaskAssign
	remaining := budget
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		type cand struct {
			u     TaskAssign
			ratio float64
			gain  float64
			c     float64
		}
		best := cand{ratio: math.Inf(-1)}
		for t, d := range p.Beliefs {
			if len(current[t]) >= maxPer {
				continue
			}
			for f := 0; f < d.NumFacts(); f++ {
				if p.frozen(t, f) {
					continue
				}
				for _, w := range p.Experts {
					c := cost(w)
					if c > remaining {
						continue
					}
					if hasAssign(current[t], w.ID, f) {
						continue
					}
					trial := append(append([]Assign{}, current[t]...), Assign{Fact: f, Worker: w})
					h, err := CondEntropyAssign(d, trial)
					if err != nil {
						return nil, err
					}
					gain := baseH[t] - h
					ratio := gain / c
					if ratio > best.ratio {
						best = cand{
							u:     TaskAssign{Task: t, Fact: f, Worker: w},
							ratio: ratio, gain: gain, c: c,
						}
					}
				}
			}
		}
		if math.IsInf(best.ratio, -1) || best.gain <= gainEps {
			break
		}
		picks = append(picks, best.u)
		t := best.u.Task
		current[t] = append(current[t], Assign{Fact: best.u.Fact, Worker: best.u.Worker})
		h, err := CondEntropyAssign(p.Beliefs[t], current[t])
		if err != nil {
			return nil, err
		}
		baseH[t] = h
		remaining -= best.c
		if remaining <= 0 {
			break
		}
	}
	sortAssigns(picks)
	return picks, nil
}

// maxAssigns resolves a MaxAssignsPerTask setting: <= 0 means 12.
func maxAssigns(n int) int {
	if n > 0 {
		return n
	}
	return 12
}

// sortAssigns orders assignment units by (Task, Fact, Worker.ID).
func sortAssigns(as []TaskAssign) {
	slices.SortFunc(as, func(a, b TaskAssign) int {
		if a.Task != b.Task {
			return a.Task - b.Task
		}
		if a.Fact != b.Fact {
			return a.Fact - b.Fact
		}
		return strings.Compare(a.Worker.ID, b.Worker.ID)
	})
}

func hasAssign(as []Assign, workerID string, fact int) bool {
	for _, a := range as {
		if a.Worker.ID == workerID && a.Fact == fact {
			return true
		}
	}
	return false
}
