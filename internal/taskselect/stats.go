package taskselect

import "sync/atomic"

// SelectStats is a point-in-time snapshot of one incremental engine's
// work counters. All fields are cumulative since the state was created;
// callers wanting per-round figures diff two snapshots. Unlike the
// package-global EvalCount, these attribute work to one state, so
// concurrent runs do not contaminate each other's numbers.
type SelectStats struct {
	// Selects counts Select / SelectAssign calls served.
	Selects int64
	// Evals counts CondEntropy-core evaluations run through this state —
	// the same unit the global EvalCount and the benchmark's
	// taskselect.{uniform,costaware}.evals_per_round measure.
	Evals int64
	// Rescans counts task caches rebuilt because the task was invalidated
	// or new (cache misses, in tasks).
	Rescans int64
	// Reused counts task caches served intact across a Select call (cache
	// hits, in tasks).
	Reused int64
}

// Sub returns s - prev field-wise — the work done between two snapshots.
func (s SelectStats) Sub(prev SelectStats) SelectStats {
	return SelectStats{
		Selects: s.Selects - prev.Selects,
		Evals:   s.Evals - prev.Evals,
		Rescans: s.Rescans - prev.Rescans,
		Reused:  s.Reused - prev.Reused,
	}
}

// engineStats is the incremental engine's atomic counter store. Atomics,
// not a mutex: evals are bumped from the parallel invalidation re-scan.
type engineStats struct {
	selects atomic.Int64
	evals   atomic.Int64
	rescans atomic.Int64
	reused  atomic.Int64
}

// Stats returns the engine's cumulative work counters. Safe to call
// concurrently with a running selection call (the fields are read
// atomically, though a mid-call snapshot may catch a round half-counted).
func (e *engine) Stats() SelectStats {
	return SelectStats{
		Selects: e.stats.selects.Load(),
		Evals:   e.stats.evals.Load(),
		Rescans: e.stats.rescans.Load(),
		Reused:  e.stats.reused.Load(),
	}
}
