package taskselect

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
)

// AssignState is the incremental variant of CostGreedy: identical unit
// purchases buy for buy (same values, same deterministic tie-break), run
// on the shared incremental engine with one gain column per expert, each
// at that expert's answer cost. CostGreedy re-scans every (task, fact,
// worker) unit on every buy iteration of every round; the engine pays
// that scan once per invalidated task and orders the buys through its
// two-level gain-per-cost argmax with lazy affordability (see the engine
// for the caching, tie-break and coherence contract).
//
// The assignment scorer computes the crowd's yes-probability table once
// per crowd and memoizes the belief-dependent projections per task until
// the task is invalidated. Workers > 1 re-scans invalidated tasks
// concurrently and fans the post-buy refresh out the same way; the
// projection memo is mutex-guarded and goroutines write disjoint row
// slots, so the parallel refresh is bit-identical to the serial one. Not
// safe for concurrent SelectAssign calls.
type AssignState struct {
	// Cost prices one answer from a worker; nil means 1 per answer. Must
	// match across calls — it is sampled per crowd at sync time.
	Cost func(w crowd.Worker) float64
	// MaxAssignsPerTask caps the answer variables accumulated in one task
	// (the enumeration is exponential in them); default 12, as CostGreedy.
	MaxAssignsPerTask int
	// Workers bounds the goroutines of the invalidation re-scan and the
	// post-buy row refresh; <= 1 means serial.
	Workers int

	engine

	pYes [][2]float64 // P(yes | truth) per worker, rebuilt by resetCrowd
}

// NewAssignState returns an empty incremental assignment engine; the
// first SelectAssign populates it for the problem it sees. cost nil
// means unit cost, maxAssignsPerTask <= 0 means 12, workers <= 1 means a
// serial re-scan.
func NewAssignState(cost func(w crowd.Worker) float64, maxAssignsPerTask, workers int) *AssignState {
	return &AssignState{Cost: cost, MaxAssignsPerTask: maxAssignsPerTask, Workers: workers}
}

// Name implements AssignSelector. The engine reports the same name as
// CostGreedy because it is the same algorithm — only the evaluation
// schedule differs.
func (s *AssignState) Name() string { return "CostGreedy" }

// columnCosts implements scorer: one column per worker, at its answer
// cost under the configured cost model.
func (s *AssignState) columnCosts(ce crowd.Crowd) []float64 {
	costs := make([]float64, len(ce))
	for i, w := range ce {
		costs[i] = 1
		if s.Cost != nil {
			costs[i] = s.Cost(w)
		}
	}
	return costs
}

// resetCrowd implements scorer.
func (s *AssignState) resetCrowd(ce crowd.Crowd) { s.pYes = asymYesTable(ce) }

// memoProj returns the memoized projection of tc's belief onto the
// sorted fact list, computing and storing it on miss. The varint key
// (projKey) distinguishes all fact indices — the old single-byte
// encoding collided for indices ≥ 256. Safe under the parallel refresh:
// lookups and stores hold projMu, the computation runs outside it, and a
// lost race recomputes a bitwise-identical vector.
func (s *AssignState) memoProj(sc *evalScratch, tc *taskCache, d *belief.Dist, facts []int) []float64 {
	sc.key = projKey(sc.key[:0], facts)
	tc.projMu.Lock()
	q, ok := tc.proj[string(sc.key)]
	tc.projMu.Unlock()
	if ok {
		return q
	}
	q = projection(d, facts)
	tc.projMu.Lock()
	if prev, ok := tc.proj[string(sc.key)]; ok {
		q = prev
	} else {
		if tc.proj == nil {
			tc.proj = make(map[string][]float64)
		}
		tc.proj[string(sc.key)] = q
	}
	tc.projMu.Unlock()
	return q
}

// condEntropy implements scorer: H(O_t | units) through the memos, using
// sc for the per-unit tables. It matches CondEntropyAssign bitwise for
// units listed in the same order: the core runs the identical arithmetic,
// only the setup (projection, per-worker yes probabilities) comes from
// cache.
func (s *AssignState) condEntropy(sc *evalScratch, tc *taskCache, d *belief.Dist, units []unitRef) (float64, error) {
	if len(units) > maxFamilyBits {
		return 0, fmt.Errorf("%w: %d answer variables", ErrTooLarge, len(units))
	}
	s.stats.evals.Add(1)
	// Distinct facts in encounter order, then sorted — the same fact list
	// CondEntropyAssign derives, so the projection patterns line up.
	facts := sc.facts[:0]
	for _, u := range units {
		if !slices.Contains(facts, u.fact) {
			facts = append(facts, u.fact)
		}
	}
	sort.Ints(facts)
	sc.facts = facts
	q := s.memoProj(sc, tc, d, facts)
	sc.pyes = grow(sc.pyes, len(units))
	sc.pos = grow(sc.pos, len(units))
	for i, u := range units {
		sc.pyes[i] = s.pYes[u.col]
		sc.pos[i] = slices.Index(facts, u.fact)
	}
	return condEntropyAssignCore(sc, tc.entropy, q, sc.pyes, sc.pos), nil
}

// scan implements scorer, evaluating every unfrozen (fact, worker) unit
// against the empty selection.
func (s *AssignState) scan(_ context.Context, tc *taskCache, d *belief.Dist) error {
	sc := getScratch()
	defer putScratch(sc)
	// The re-scan partitions tasks per worker, so tc is effectively owned
	// here — but the reset still takes projMu (uncontended, once per task
	// per round) so the guardedby invariant holds on every path rather
	// than by phase-ordering argument.
	tc.projMu.Lock()
	clear(tc.proj) // stale belief's projections; keep the buckets
	tc.projMu.Unlock()
	w := len(s.ce)
	for f := 0; f < d.NumFacts(); f++ {
		if tc.frozen[f] {
			continue
		}
		for wi := 0; wi < w; wi++ {
			sc.units = append(sc.units[:0], unitRef{fact: f, col: wi})
			h, err := s.condEntropy(sc, tc, d, sc.units)
			if err != nil {
				return err
			}
			tc.gains[f*w+wi] = tc.entropy - h
		}
	}
	return nil
}

// refill implements scorer. Units bought, frozen, or no longer affordable
// are dead (the budget only shrinks within a call, so they can never come
// back). Workers > 1 fans the per-fact evaluations out with pooled
// scratch and disjoint row writes.
func (s *AssignState) refill(ctx context.Context, tc *taskCache, d *belief.Dist, nh, remaining float64) error {
	w := len(s.ce)
	return scanAll(ctx, d.NumFacts(), s.Workers, func(f int) error {
		row := tc.live[f*w : (f+1)*w]
		if tc.frozen[f] {
			for wi := range row {
				row[wi] = math.NaN()
			}
			return nil
		}
		sc := getScratch()
		defer putScratch(sc)
		for wi := range row {
			if s.costs[wi] > remaining || tc.chosen[f*w+wi] {
				row[wi] = math.NaN()
				continue
			}
			sc.units = append(sc.units[:0], tc.units...)
			sc.units = append(sc.units, unitRef{fact: f, col: wi})
			th, err := s.condEntropy(sc, tc, d, sc.units)
			if err != nil {
				return err
			}
			row[wi] = nh - th
		}
		return nil
	})
}

// SelectAssign implements AssignSelector. See the type comment for the
// contract; the purchases are identical to CostGreedy.SelectAssign with
// the same cost model on the same problem.
func (s *AssignState) SelectAssign(ctx context.Context, p Problem, budget float64) ([]TaskAssign, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if budget <= 0 {
		return nil, nil
	}
	units, err := s.pick(ctx, p, s, s.Workers, budget, maxAssigns(s.MaxAssignsPerTask))
	if err != nil || len(units) == 0 {
		return nil, err
	}
	picks := make([]TaskAssign, len(units))
	for i, u := range units {
		picks[i] = TaskAssign{Task: u.task, Fact: u.fact, Worker: s.ce[u.col]}
	}
	sortAssigns(picks)
	return picks, nil
}
