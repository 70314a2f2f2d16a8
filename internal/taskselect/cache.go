package taskselect

import (
	"fmt"
	"math"
)

// CacheVersion is the serialized selection-cache format version.
const CacheVersion = 1

// Cache kinds identify which incremental engine wrote a SelectionCache;
// restoring into the other engine fails (and the pipeline degrades to a
// cold start rather than guessing).
const (
	// CacheKindGreedy marks a SelectionState (uniform Algorithm 2) cache.
	CacheKindGreedy = "greedy"
	// CacheKindAssign marks an AssignState (per-unit cost-aware) cache.
	CacheKindAssign = "assign"
)

// SelectionCache is the serializable round-start state of an incremental
// selection engine: the per-task gain tables that survive between rounds.
// Exported from a running state with ExportCache and fed back with
// RestoreCache, it lets a resumed checking loop skip the full re-scan for
// every task whose belief the interrupted run had already cached — a warm
// resume performs zero full-rescan rounds on unchanged tasks. The cache
// is advisory: a crowd or shape mismatch at restore time silently falls
// back to a cold scan, and the picks are identical either way (the cached
// values are bitwise the ones a cold scan would recompute).
type SelectionCache struct {
	Version  int    `json:"version"`
	Kind     string `json:"kind"`
	CrowdSig string `json:"crowd_sig"`
	// Tasks is indexed like Problem.Beliefs.
	Tasks []TaskGainCache `json:"tasks"`
}

// TaskGainCache holds one task's cached round-start gains.
type TaskGainCache struct {
	// Dirty marks a task whose gains were stale at export (its belief
	// changed after the last scan); it re-scans on first use after
	// restore and the table fields are absent.
	Dirty bool `json:"dirty,omitempty"`
	// Entropy is H(O_t) of the belief the gains were computed under.
	Entropy float64 `json:"entropy,omitempty"`
	// Gains is the per-fact round-start gain table of the uniform engine
	// (CacheKindGreedy). Frozen facts carry 0 here — NaN, the in-memory
	// marker, is not valid JSON — and are identified by Frozen.
	Gains []float64 `json:"gains,omitempty"`
	// UnitGains is the per-fact, per-worker (crowd order) gain table of
	// the assignment engine (CacheKindAssign); frozen rows carry 0.
	UnitGains [][]float64 `json:"unit_gains,omitempty"`
	// Frozen is the stopping-rule mask the gains were computed under.
	Frozen []bool `json:"frozen,omitempty"`
}

// Validate checks the cache's internal consistency (kind, version, table
// shapes). Shape checks against a concrete problem happen at adoption.
func (c *SelectionCache) Validate() error {
	if c.Version != CacheVersion {
		return fmt.Errorf("taskselect: selection-cache version %d, support %d", c.Version, CacheVersion)
	}
	if c.Kind != CacheKindGreedy && c.Kind != CacheKindAssign {
		return fmt.Errorf("taskselect: unknown selection-cache kind %q", c.Kind)
	}
	for t := range c.Tasks {
		tg := &c.Tasks[t]
		if tg.Dirty {
			continue
		}
		n := len(tg.Gains)
		if c.Kind == CacheKindAssign {
			n = len(tg.UnitGains)
		}
		if tg.Frozen != nil && len(tg.Frozen) != n {
			return fmt.Errorf("taskselect: selection-cache task %d frozen mask covers %d of %d facts", t, len(tg.Frozen), n)
		}
	}
	return nil
}

// ExportCache snapshots the state's per-task gain caches for
// serialization (e.g. into a pipeline checkpoint). Tasks invalidated
// since the last Select export as dirty placeholders. Returns nil when
// the state has never synced to a problem.
func (s *SelectionState) ExportCache() *SelectionCache { return s.exportCache(CacheKindGreedy) }

// RestoreCache primes the state with a cache exported by ExportCache.
// Adoption is deferred to the next Select: the crowd memos are
// recomputed there, and the per-task gains are taken over only when the
// cache's crowd signature and shape match the live problem — otherwise
// the tasks re-scan cold. Restoring a cache of the wrong kind errors.
func (s *SelectionState) RestoreCache(c *SelectionCache) error {
	return s.restoreCache(c, CacheKindGreedy)
}

// ExportCache snapshots the assignment engine's per-task unit-gain
// caches; see (*SelectionState).ExportCache for the contract.
func (s *AssignState) ExportCache() *SelectionCache { return s.exportCache(CacheKindAssign) }

// RestoreCache primes the assignment engine with a cache exported by its
// ExportCache; see (*SelectionState).RestoreCache for the contract.
func (s *AssignState) RestoreCache(c *SelectionCache) error {
	return s.restoreCache(c, CacheKindAssign)
}

// exportCache snapshots the engine's round-start gain rows as a cache of
// the given kind: a flat per-fact table for CacheKindGreedy (one column),
// per-fact rows of columns for CacheKindAssign.
func (e *engine) exportCache(kind string) *SelectionCache {
	if len(e.tasks) == 0 {
		return nil
	}
	c := &SelectionCache{
		Version:  CacheVersion,
		Kind:     kind,
		CrowdSig: e.crowdSig,
		Tasks:    make([]TaskGainCache, len(e.tasks)),
	}
	cols := len(e.costs)
	for t, tc := range e.tasks {
		if tc == nil || tc.dirty {
			c.Tasks[t] = TaskGainCache{Dirty: true}
			continue
		}
		gains := make([]float64, len(tc.gains))
		for i, g := range tc.gains {
			if !math.IsNaN(g) {
				gains[i] = g
			}
		}
		tg := TaskGainCache{Entropy: tc.entropy, Frozen: append([]bool{}, tc.frozen...)}
		if kind == CacheKindGreedy {
			tg.Gains = gains
		} else {
			tg.UnitGains = make([][]float64, len(gains)/cols)
			for f := range tg.UnitGains {
				tg.UnitGains[f] = gains[f*cols : (f+1)*cols : (f+1)*cols]
			}
		}
		c.Tasks[t] = tg
	}
	return c
}

// restoreCache validates c and holds it for adoption by the next sync;
// a cache of another kind than want errors.
func (e *engine) restoreCache(c *SelectionCache, want string) error {
	if c == nil {
		return nil
	}
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Kind != want {
		return fmt.Errorf("taskselect: selection-cache kind %q, want %q", c.Kind, want)
	}
	e.pending = c
	return nil
}

// adoptPending installs the pending cache's clean tasks into the freshly
// reset task table; called from sync after a crowd/shape reset.
func (e *engine) adoptPending(p Problem) {
	pc := e.pending
	if pc == nil || pc.CrowdSig != e.crowdSig || len(pc.Tasks) != len(p.Beliefs) {
		return
	}
	for t := range pc.Tasks {
		tg := &pc.Tasks[t]
		m := p.Beliefs[t].NumFacts()
		gains, ok := tg.gainRow(pc.Kind, m, len(e.costs))
		if tg.Dirty || !ok {
			continue
		}
		tc := &taskCache{
			entropy:   tg.Entropy,
			gains:     gains,
			frozen:    restoreFrozen(tg.Frozen, m),
			anyFrozen: anyTrue(tg.Frozen),
		}
		tc.best = rowBest(tc.gains, e.costs, math.Inf(1))
		e.tasks[t] = tc
	}
}

// gainRow rebuilds a task's in-memory fact × column gain row from its
// serialized table, re-marking frozen facts with NaN; ok is false when
// the table does not have m facts of cols columns.
func (tg *TaskGainCache) gainRow(kind string, m, cols int) (row []float64, ok bool) {
	if kind == CacheKindGreedy {
		if len(tg.Gains) != m {
			return nil, false
		}
		row = append(row, tg.Gains...)
	} else {
		if len(tg.UnitGains) != m {
			return nil, false
		}
		row = make([]float64, 0, m*cols)
		for _, r := range tg.UnitGains {
			if len(r) != cols {
				return nil, false
			}
			row = append(row, r...)
		}
	}
	for f := 0; f < m && f < len(tg.Frozen); f++ {
		if tg.Frozen[f] {
			for i := f * cols; i < (f+1)*cols; i++ {
				row[i] = math.NaN()
			}
		}
	}
	return row, true
}

// restoreFrozen clones a serialized frozen mask, padding to m facts (an
// omitted mask freezes nothing).
func restoreFrozen(frozen []bool, m int) []bool {
	out := make([]bool, m)
	copy(out, frozen)
	return out
}

// anyTrue reports whether any entry of a frozen mask is set.
func anyTrue(mask []bool) bool {
	for _, v := range mask {
		if v {
			return true
		}
	}
	return false
}

// compile-time interface checks for the incremental engines.
var (
	_ Selector       = (*SelectionState)(nil)
	_ AssignSelector = CostGreedy{}
	_ AssignSelector = (*AssignState)(nil)
)
