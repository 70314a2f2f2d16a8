package taskselect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
)

// engine is the incremental selection core behind SelectionState (the
// uniform Algorithm 2 engine) and AssignState (the per-unit cost-aware
// engine). Both buy units — one column of a task's fact × column gain
// row, each column with a fixed cost — greedily by gain per cost, and
// amortize that greedy scan across the checking loop's rounds:
//
//   - Each task's round-start gain row gain^∅(f, c) = H(O_t) −
//     H(O_t | unit (f, c)) is cached between calls and recomputed only
//     for tasks the caller has Invalidated (in the pipeline: the tasks
//     whose beliefs the previous round's answers updated). A steady-state
//     round therefore costs O(touched tasks), not O(N·m·columns)
//     conditional-entropy evaluations.
//   - The pick loop is a two-level argmax instead of a priority queue:
//     every task caches the first strict maximum of its row by gain per
//     cost (fact, then column ascending), and each pick scans those
//     per-task bests in task order with a strict comparison — exactly
//     the reference scan order (ties to the lowest task, then fact, then
//     column), at O(N) per pick with no queue maintenance and no
//     allocation.
//   - Affordability is revalidated lazily: the budget only shrinks within
//     a call, so a cached best stays valid until its cost exceeds the
//     remaining budget, at which point the task's row is re-scanned with
//     the affordability filter (no new entropy evaluations) — and only
//     if the task could still win, since filtering never raises its
//     best. The reference selectors filter the same units out of their
//     scans.
//   - A pick only perturbs the gains of its own task (tasks are
//     independent), so only that task's remaining units are re-evaluated
//     — eagerly, on exactly the reference recompute schedule, rather than
//     CELF-style stale-until-popped: pure laziness needs stale gains to
//     upper-bound fresh ones, and while submodularity guarantees that in
//     exact arithmetic, rounding can violate it by a few ulps, which in
//     the exact-tie regimes of a converged belief silently changes the
//     argmax. Units picked, frozen, or no longer affordable are marked
//     dead in the refreshed row. The final pick of a call skips its
//     refresh (nothing reads it), and a task holding maxPer units leaves
//     the pool.
//
// The scorer supplies what differs between the two candidate kinds: the
// column costs, the crowd memos, and the gain evaluations. The uniform
// scorer has one column of cost exactly 1, and that makes the ratio
// argmax Greedy's gain argmax tie for tie: g/1 == g in IEEE 754, so the
// ratio comparison is the gain comparison, every column stays
// affordable, and a budget of float64(k) stops after exactly k picks.
//
// The caller owns cache coherence: after mutating a task's belief (or its
// Frozen mask) it must call Invalidate(task) before the next call. A
// crowd or problem-shape change resets the engine wholesale, so one
// engine must only ever serve one logical run at a time. Workers > 1
// re-scans invalidated tasks concurrently and lets the scorer fan the
// post-pick refresh out; every goroutine writes disjoint row slots and
// the argmax reductions run serially, so the parallel path is
// bit-identical to the serial one. Not safe for concurrent calls.
type engine struct {
	// Crowd-derived memos, reset when the crowd changes.
	crowdSig string
	ce       crowd.Crowd
	costs    []float64 // cost per gain column

	tasks []*taskCache
	// cur[t] is task t's current best unit during a call: its round-start
	// best, re-filtered for affordability or refreshed after a pick as the
	// call goes on. A contiguous array keeps the pick loop's per-task scan
	// to one comparison in the common case.
	cur []unitBest

	// dirtyList, touchedList and picks are per-call scratch, kept on the
	// engine so steady-state rounds reuse their capacity.
	dirtyList   []int
	touchedList []int
	picks       []pickRef

	// pending holds a cache restored via RestoreCache until the next sync
	// adopts it (the crowd memos must be recomputed for the live crowd
	// before the per-task gains are trusted).
	pending *SelectionCache

	stats engineStats
}

// scorer is one candidate kind's contribution to the engine.
type scorer interface {
	// columnCosts prices each gain column for the crowd ce; it must not
	// change the scorer's memos, since the costs are validated first.
	columnCosts(ce crowd.Crowd) []float64
	// resetCrowd rebuilds the scorer's crowd-derived memos for ce.
	resetCrowd(ce crowd.Crowd)
	// scan fills tc.gains for every unfrozen fact of d; the engine has
	// already set tc.entropy and tc.frozen and NaN-marked the frozen rows.
	scan(ctx context.Context, tc *taskCache, d *belief.Dist) error
	// condEntropy evaluates H(O_t | units) for a non-empty unit list.
	condEntropy(sc *evalScratch, tc *taskCache, d *belief.Dist, units []unitRef) (float64, error)
	// refill fills tc.live with every unit's marginal gain given tc.units
	// (whose conditional entropy is nh), NaN on dead units: chosen,
	// frozen, or costing more than remaining.
	refill(ctx context.Context, tc *taskCache, d *belief.Dist, nh, remaining float64) error
}

// taskCache holds the belief-derived memos for one task.
type taskCache struct {
	dirty     bool
	entropy   float64   // H(O_t)
	gains     []float64 // round-start gain per fact × column, row-major; NaN marks frozen facts
	frozen    []bool    // the mask gains was computed under
	anyFrozen bool      // OR of frozen, the drift check's fast path
	best      unitBest  // rowBest of gains, ignoring affordability

	// Pick-loop scratch, only meaningful while touched (reset at the
	// start of the next call): units holds this call's picks in this task
	// in pick order, chosen marks them (fact × column), and live holds the
	// refreshed gains given units with NaN on dead units.
	touched bool
	units   []unitRef
	chosen  []bool
	live    []float64

	// proj memoizes the assignment scorer's projections per query-fact
	// set; projMu guards it against the parallel refresh (duplicate
	// computes are bitwise-identical, so last-write-wins is harmless).
	projMu sync.Mutex
	proj   map[string][]float64 //hclint:guardedby projMu
}

// unitBest is one task's argmax unit; fact == -1 when none qualifies.
type unitBest struct {
	fact, col         int
	gain, cost, ratio float64
}

// unitRef is one unit of a task's gain row in index form: col indexes the
// row's columns — the synced crowd for the assignment scorer, always 0
// for the uniform one. Keeping indices rather than Worker values makes
// the dedup and memo lookups allocation-free.
type unitRef struct {
	fact int
	col  int
}

// pickRef is one pick of the pick loop, in pick order.
type pickRef struct{ task, fact, col int }

// rowBest returns the first strict maximum by gain per cost over a
// fact × column gain row, restricted to units costing at most limit. NaN
// entries (frozen, chosen, or unaffordable) are skipped. Scanning facts
// then columns ascending with a strict > is exactly the reference
// selectors' tie-break order, which is what makes the cached best usable
// in place of their scans.
func rowBest(gains, costs []float64, limit float64) unitBest {
	b := unitBest{fact: -1, col: -1, ratio: math.Inf(-1)}
	cols := len(costs)
	for f := 0; f*cols < len(gains); f++ {
		for c, cost := range costs {
			g := gains[f*cols+c]
			if math.IsNaN(g) || cost > limit {
				continue
			}
			if r := g / cost; r > b.ratio {
				b = unitBest{fact: f, col: c, gain: g, cost: cost, ratio: r}
			}
		}
	}
	return b
}

// Invalidate marks tasks whose beliefs (or frozen masks) changed since the
// last selection call, forcing their cached gains to be recomputed.
// Out-of-range indices are ignored.
func (e *engine) Invalidate(tasks ...int) {
	for _, t := range tasks {
		if t >= 0 && t < len(e.tasks) && e.tasks[t] != nil {
			e.tasks[t].dirty = true
		}
	}
}

// InvalidateAll drops every cached gain (keeping the crowd memos).
func (e *engine) InvalidateAll() {
	for _, tc := range e.tasks {
		if tc != nil {
			tc.dirty = true
		}
	}
}

// Admit grows the task table to total tasks, appending cold cache slots
// for the newly admitted tasks while keeping every existing task's cached
// gains and the crowd memos — the next sync slab-fills only the new
// slots instead of resetting wholesale. An engine that has not synced yet
// is left untouched: its first sync builds the table at the grown size
// anyway. total at or below the current size is a no-op.
func (e *engine) Admit(total int) {
	if len(e.tasks) == 0 || total <= len(e.tasks) {
		return
	}
	e.tasks = append(e.tasks, make([]*taskCache, total-len(e.tasks))...)
}

// crowdSignature fingerprints the crowd for cache-reset detection.
func crowdSignature(ce crowd.Crowd) string {
	var sb strings.Builder
	for _, w := range ce {
		fmt.Fprintf(&sb, "%s\x00%v\x00%v\x00%v\x01", w.ID, w.Accuracy, w.TPR, w.TNR)
	}
	return sb.String()
}

// crowdEqual reports whether two crowds are identical worker for worker —
// the steady-state fast path of the crowd-change check, sparing the
// formatted signature rebuild on every call. Float fields compare by bit
// pattern, which is at least as strict as the signature string.
func crowdEqual(a, b crowd.Crowd) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID ||
			math.Float64bits(a[i].Accuracy) != math.Float64bits(b[i].Accuracy) ||
			math.Float64bits(a[i].TPR) != math.Float64bits(b[i].TPR) ||
			math.Float64bits(a[i].TNR) != math.Float64bits(b[i].TNR) {
			return false
		}
	}
	return true
}

// sync aligns the cache with the problem: a crowd or shape change resets
// everything (adopting a pending restored cache when it matches), and a
// frozen-mask drift on a clean task dirties it. It fails, leaving the
// engine untouched, when a column cost is not a positive number.
func (e *engine) sync(p Problem, sc scorer) error {
	if !crowdEqual(e.ce, p.Experts) || len(p.Beliefs) != len(e.tasks) {
		costs := sc.columnCosts(p.Experts)
		for _, c := range costs {
			if !(c > 0) { // also rejects NaN
				return errors.New("taskselect: worker cost must be positive")
			}
		}
		e.crowdSig = crowdSignature(p.Experts)
		// Copy the crowd so a caller mutating its slice in place is still
		// caught by the equality check on the next call.
		e.ce = append(crowd.Crowd(nil), p.Experts...)
		e.costs = costs
		sc.resetCrowd(e.ce)
		e.tasks = make([]*taskCache, len(p.Beliefs))
		e.adoptPending(p)
	}
	e.pending = nil
	// Batch-allocate caches for tasks still missing one (all of them after
	// a reset, none in steady state) instead of one heap object per task.
	missing, facts := 0, 0
	for t, tc := range e.tasks {
		if tc == nil {
			missing++
			facts += p.Beliefs[t].NumFacts()
		}
	}
	if missing > 0 {
		slab := make([]taskCache, missing)
		// Carve every new cache's row slices out of two shared backing
		// arrays; a cold sync otherwise allocates four slices per task. The
		// three-index slicing caps each slice at its task's size, so a
		// later grow can never reach into a neighbour's segment.
		cols := len(e.costs)
		fslab := make([]float64, 2*cols*facts)
		bslab := make([]bool, (1+cols)*facts)
		i, fo, bo := 0, 0, 0
		for t := range e.tasks {
			if e.tasks[t] != nil {
				continue
			}
			m := p.Beliefs[t].NumFacts()
			n := m * cols
			tc := &slab[i]
			tc.dirty = true
			tc.gains = fslab[fo : fo+n : fo+n]
			tc.live = fslab[fo+n : fo+2*n : fo+2*n]
			tc.frozen = bslab[bo : bo+m : bo+m]
			tc.chosen = bslab[bo+m : bo+m+n : bo+m+n]
			e.tasks[t] = tc
			i++
			fo += 2 * n
			bo += m + n
		}
	}
	for t, tc := range e.tasks {
		if !tc.dirty && !frozenEqual(tc.frozen, tc.anyFrozen, p, t) {
			tc.dirty = true
		}
	}
	return nil
}

// frozenEqual reports whether the cached frozen mask matches the
// problem's current mask for task t. anyFrozen is the cached mask's OR,
// letting the overwhelmingly common nothing-frozen-anywhere case skip the
// per-fact scan.
func frozenEqual(cached []bool, anyFrozen bool, p Problem, t int) bool {
	if !anyFrozen && (p.Frozen == nil || t >= len(p.Frozen) || p.Frozen[t] == nil) {
		return true
	}
	n := p.Beliefs[t].NumFacts()
	for f := 0; f < n; f++ {
		was := cached != nil && f < len(cached) && cached[f]
		if was != p.frozen(t, f) {
			return false
		}
	}
	return true
}

// rescan rebuilds the round-start gain row of task t: the engine records
// the entropy and frozen mask, the scorer evaluates the unfrozen facts.
func (e *engine) rescan(ctx context.Context, p Problem, sc scorer, t int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tc, d := e.tasks[t], p.Beliefs[t]
	m, cols := d.NumFacts(), len(e.costs)
	tc.entropy = d.Entropy()
	tc.gains = grow(tc.gains, m*cols)
	tc.frozen = grow(tc.frozen, m)
	tc.anyFrozen = false
	for f := 0; f < m; f++ {
		tc.frozen[f] = p.frozen(t, f)
		if tc.frozen[f] {
			tc.anyFrozen = true
			for i := f * cols; i < (f+1)*cols; i++ {
				tc.gains[i] = math.NaN()
			}
		}
	}
	if err := sc.scan(ctx, tc, d); err != nil {
		return err
	}
	tc.best = rowBest(tc.gains, e.costs, math.Inf(1))
	e.cur[t] = tc.best
	tc.dirty = false
	return nil
}

// pick runs one selection call: it syncs the cache to p, re-scans the
// dirty tasks, then picks units greedily by gain per cost until budget is
// spent, no affordable unit has positive gain, or every task with one
// holds maxPer units. The picks are returned in pick order, in a buffer
// reused by the next call.
func (e *engine) pick(ctx context.Context, p Problem, sc scorer, workers int, budget float64, maxPer int) ([]pickRef, error) {
	// Clear the previous call's pick-loop scratch up front (not at the
	// end: an error-path abort must not leak touched rows into the next
	// call) and before sync, which may swap the task table wholesale.
	for _, t := range e.touchedList {
		if t < len(e.tasks) && e.tasks[t] != nil {
			e.tasks[t].touched = false
			e.tasks[t].units = e.tasks[t].units[:0]
		}
	}
	e.touchedList = e.touchedList[:0]
	if err := e.sync(p, sc); err != nil {
		return nil, err
	}
	e.stats.selects.Add(1)

	// Parallel invalidation re-scan: only dirty tasks pay the row sweep;
	// every other task starts the call from its cached round-start best.
	e.dirtyList = e.dirtyList[:0]
	e.cur = grow(e.cur, len(e.tasks))
	for t, tc := range e.tasks {
		if tc.dirty {
			e.dirtyList = append(e.dirtyList, t)
		} else {
			e.cur[t] = tc.best
		}
	}
	e.stats.rescans.Add(int64(len(e.dirtyList)))
	e.stats.reused.Add(int64(len(e.tasks) - len(e.dirtyList)))
	err := scanAll(ctx, len(e.dirtyList), workers, func(i int) error {
		return e.rescan(ctx, p, sc, e.dirtyList[i])
	})
	if err != nil {
		return nil, err
	}

	scratch := getScratch()
	defer putScratch(scratch)
	cols := len(e.costs)
	e.picks = e.picks[:0]
	remaining := budget
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Two-level argmax: per-task current bests scanned in task order
		// with a strict > — the reference selectors' first-strict-max over
		// (task, fact, column) among affordable units.
		bt := -1
		best := unitBest{ratio: math.Inf(-1)}
		for t := range e.cur {
			c := &e.cur[t]
			if !(c.ratio > best.ratio) {
				continue // its affordable best cannot beat best either
			}
			if c.cost > remaining {
				// Lazy affordability: re-filter the cached row (no new
				// evaluations). The budget only shrinks within a call, so
				// the filtered best stays valid until the call ends.
				row := e.tasks[t].gains
				if e.tasks[t].touched {
					row = e.tasks[t].live
				}
				*c = rowBest(row, e.costs, remaining)
				if !(c.ratio > best.ratio) {
					continue
				}
			}
			bt, best = t, *c
		}
		if bt < 0 || best.gain <= gainEps {
			// Algorithm 2 line 4: no affordable unit improves the objective.
			break
		}
		tc, d := e.tasks[bt], p.Beliefs[bt]
		if !tc.touched {
			tc.touched = true
			e.touchedList = append(e.touchedList, bt)
			n := d.NumFacts() * cols
			tc.chosen = grow(tc.chosen, n)
			clear(tc.chosen)
			tc.live = grow(tc.live, n)
		}
		e.picks = append(e.picks, pickRef{task: bt, fact: best.fact, col: best.col})
		tc.units = append(tc.units, unitRef{fact: best.fact, col: best.col})
		tc.chosen[best.fact*cols+best.col] = true
		remaining -= best.cost
		if remaining <= 0 {
			// The budget is spent: no further argmax reads the refreshed
			// row (the next call rescans or starts from round-start gains),
			// so the final — and most expensive — refresh is skipped.
			break
		}
		if len(tc.units) >= maxPer {
			// The task is out of the pool; no refresh needed.
			e.cur[bt] = unitBest{fact: -1, col: -1, ratio: math.Inf(-1)}
			continue
		}
		// The enlarged selection's conditional entropy becomes the new gain
		// baseline for task bt; its remaining units re-evaluate against it
		// on exactly the reference recompute schedule.
		nh, err := sc.condEntropy(scratch, tc, d, tc.units)
		if err != nil {
			return nil, err
		}
		if err := sc.refill(ctx, tc, d, nh, remaining); err != nil {
			return nil, err
		}
		e.cur[bt] = rowBest(tc.live, e.costs, math.Inf(1))
	}
	return e.picks, nil
}
