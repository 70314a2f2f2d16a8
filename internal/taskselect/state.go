package taskselect

import (
	"context"
	"fmt"
	"math"
	"sync"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
)

// SelectionState is the incremental variant of the Greedy selector. It
// implements Selector with round-for-round identical picks (same values,
// same deterministic tie-break) but amortizes the work of Algorithm 2
// across the checking loop's rounds on the shared incremental engine: a
// query is a unit whose gain row has one column of cost 1, so the
// engine's gain-per-cost argmax is Greedy's gain argmax and a budget of k
// buys exactly k picks. Only tasks the caller has Invalidated are
// re-scanned (see the engine for the caching, tie-break and coherence
// contract).
//
// The uniform scorer keeps the evaluations fast: the crowd-only pieces
// of CondEntropy (Hamming-distance likelihood tables, Σ_cr h(Pr_cr), the
// asymmetric yes-probability table) are computed once per crowd, every
// rescan and refill fuses its per-fact projections into a single
// observation pass, and scratch is pooled, so a steady-state round
// allocates O(1).
//
// Workers > 1 re-scans invalidated tasks concurrently and fans the
// post-pick row refresh out across the same pool; the result is
// bit-identical to the serial one. SelectionState is not safe for
// concurrent Select calls.
type SelectionState struct {
	// Workers bounds the goroutines of the invalidation re-scan and the
	// post-pick row refresh; <= 1 means serial.
	Workers int

	engine

	// Crowd-derived memos, rebuilt by resetCrowd.
	asym      bool
	hPerQuery float64      // symmetric: Σ_cr h(Pr_cr)
	pYes      [][2]float64 // asymmetric: P(yes | truth) per worker

	// tables[s] caches likelihoodTables(ce, s) per query-set size. The
	// mutex makes get-or-create safe from the parallel re-scan.
	tablesMu sync.Mutex
	tables   map[int][][]float64 //hclint:guardedby tablesMu
}

// NewSelectionState returns an empty incremental selection engine; the
// first Select populates it for the problem it sees.
func NewSelectionState(workers int) *SelectionState {
	return &SelectionState{Workers: workers}
}

// Name implements Selector. The engine reports the same name as Greedy
// because it is the same algorithm — only the evaluation schedule differs.
func (s *SelectionState) Name() string { return "Approx" }

// columnCosts implements scorer: one query column at cost exactly 1.
func (s *SelectionState) columnCosts(crowd.Crowd) []float64 { return []float64{1} }

// resetCrowd implements scorer.
func (s *SelectionState) resetCrowd(ce crowd.Crowd) {
	s.asym = false
	for _, w := range ce {
		if w.Asymmetric() {
			s.asym = true
			break
		}
	}
	if s.asym {
		s.pYes = asymYesTable(ce)
	} else {
		s.hPerQuery = symAnswerEntropy(ce)
	}
	// resetCrowd runs serially before any parallel scan, but the reset
	// still takes tablesMu (uncontended) so the guardedby invariant holds
	// on every path rather than by phase-ordering argument.
	s.tablesMu.Lock()
	s.tables = make(map[int][][]float64)
	s.tablesMu.Unlock()
	if !s.asym {
		// Pre-warm the size-1 table so the parallel re-scan only reads it.
		s.likelihoodTablesFor(1)
	}
}

// likelihoodTablesFor returns the memoized Hamming-distance tables for
// query-set size sz, building them on first use.
func (s *SelectionState) likelihoodTablesFor(sz int) [][]float64 {
	s.tablesMu.Lock()
	defer s.tablesMu.Unlock()
	tbl, ok := s.tables[sz]
	if !ok {
		tbl = likelihoodTables(s.ce, sz)
		s.tables[sz] = tbl
	}
	return tbl
}

// core runs the sym or asym conditional-entropy core on projection q of a
// size-sz query set, enumerating in sc.
func (s *SelectionState) core(sc *evalScratch, entropy float64, q []float64, tables [][]float64, sz int) float64 {
	if s.asym {
		return condEntropyAsymCore(sc, entropy, q, s.pYes, sz, len(s.ce))
	}
	return condEntropySymCore(sc, entropy, q, tables, s.hPerQuery, sz, len(s.ce))
}

// condEntropy implements scorer: H(O_t | AS^facts) through the crowd
// memos, using sc for the projection. It matches CondEntropy bitwise: the
// cores run the identical arithmetic, only the setup comes from cache and
// scratch.
func (s *SelectionState) condEntropy(sc *evalScratch, tc *taskCache, d *belief.Dist, units []unitRef) (float64, error) {
	sz, w := len(units), len(s.ce)
	if sz*w > maxFamilyBits {
		return 0, fmt.Errorf("%w: |T|=%d × |CE|=%d", ErrTooLarge, sz, w)
	}
	s.stats.evals.Add(1)
	sc.facts = sc.facts[:0]
	for _, u := range units {
		sc.facts = append(sc.facts, u.fact)
	}
	sc.q = projectionInto(sc.q, d, sc.facts)
	var tables [][]float64
	if !s.asym {
		tables = s.likelihoodTablesFor(sz)
	}
	return s.core(sc, tc.entropy, sc.q, tables, sz), nil
}

// scan implements scorer: the round-start row is a refill against the
// empty selection, serial because the engine already spreads its
// re-scans over the worker pool.
func (s *SelectionState) scan(ctx context.Context, tc *taskCache, d *belief.Dist) error {
	tc.chosen = grow(tc.chosen, d.NumFacts())
	clear(tc.chosen)
	return s.fill(ctx, tc, d, tc.gains, tc.entropy, 1)
}

// refill implements scorer. With one column of cost 1 no candidate is
// ever unaffordable, so only chosen and frozen facts are dead.
func (s *SelectionState) refill(ctx context.Context, tc *taskCache, d *belief.Dist, nh, _ float64) error {
	return s.fill(ctx, tc, d, tc.live, nh, s.Workers)
}

// fill writes row[f] = base − H(O_t | tc.units ∪ {f}) for every live fact
// f, NaN for chosen and frozen ones. Every candidate's query set is the
// task's picks plus one fact, so the projections are fused into a single
// observation pass (the picks' pattern bits are shared; only the
// candidate's top bit differs), with each addition in the order the
// per-candidate projection would perform it — the gains are bitwise the
// ones Greedy's one-at-a-time evaluation produces. workers > 1 fans the
// core evaluations out after the serial projection pass; each goroutine
// writes only its fact's slot.
func (s *SelectionState) fill(ctx context.Context, tc *taskCache, d *belief.Dist, row []float64, base float64, workers int) error {
	m, w := d.NumFacts(), len(s.ce)
	sz := len(tc.units) + 1
	if sz*w > maxFamilyBits {
		return fmt.Errorf("%w: |T|=%d × |CE|=%d", ErrTooLarge, sz, w)
	}
	var tables [][]float64
	if !s.asym {
		tables = s.likelihoodTablesFor(sz)
	}
	n := 1 << uint(sz)
	sc := getScratch()
	defer putScratch(sc)
	sc.q = grow(sc.q, m*n)
	qs := sc.q
	for i := range qs {
		qs[i] = 0
	}
	hiBit := uint(sz - 1) // the candidate fact is the query list's last entry
	for o := 0; o < d.NumObservations(); o++ {
		po := d.P(o)
		if po == 0 {
			continue
		}
		pb := 0
		for j, u := range tc.units {
			if belief.Models(o, u.fact) {
				pb |= 1 << uint(j)
			}
		}
		for f := 0; f < m; f++ {
			if tc.chosen[f] || tc.frozen[f] {
				continue
			}
			idx := pb
			if belief.Models(o, f) {
				idx |= 1 << hiBit
			}
			qs[f*n+idx] += po
		}
	}
	return scanAll(ctx, m, workers, func(f int) error {
		if tc.chosen[f] || tc.frozen[f] {
			row[f] = math.NaN()
			return nil
		}
		s.stats.evals.Add(1)
		esc := sc // serial: the enumeration shares the projections' scratch
		if workers > 1 {
			esc = getScratch()
			defer putScratch(esc)
		}
		row[f] = base - s.core(esc, tc.entropy, qs[f*n:(f+1)*n], tables, sz)
		return nil
	})
}

// Select implements Selector. See the type comment for the contract; the
// picks are identical to Greedy.Select on the same problem.
func (s *SelectionState) Select(ctx context.Context, p Problem, k int) ([]Candidate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	// Unit cost and no per-task cap: a budget of k buys exactly k picks.
	units, err := s.pick(ctx, p, s, s.Workers, float64(k), math.MaxInt)
	if err != nil || len(units) == 0 {
		return nil, err
	}
	picks := make([]Candidate, len(units))
	for i, u := range units {
		picks[i] = Candidate{Task: u.task, Fact: u.fact}
	}
	sortCandidates(picks)
	return picks, nil
}
