package taskselect

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hcrowd/internal/crowd"
	"hcrowd/internal/rngutil"
)

// warmSelectionState runs a state to steady state and exports its cache.
func warmSelectionState(t *testing.T, ctx context.Context, p Problem) *SelectionCache {
	t.Helper()
	state := NewSelectionState(0)
	if _, err := state.Select(ctx, p, 2); err != nil {
		t.Fatal(err)
	}
	c := state.ExportCache()
	if c == nil {
		t.Fatal("warm state exported nil cache")
	}
	return c
}

// TestSelectionCacheRoundTripWarm is the warm-restore property for the
// uniform engine: a fresh state restored from a serialized cache must
// pick identically to the live state without re-scanning any clean task.
func TestSelectionCacheRoundTripWarm(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 4, 6, experts(0.85, 0.95))
	c := warmSelectionState(t, ctx, p)

	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back SelectionCache
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}

	want, err := (Greedy{}).Select(ctx, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSelectionState(0)
	if err := warm.RestoreCache(&back); err != nil {
		t.Fatal(err)
	}
	ResetEvalCount()
	got, err := warm.Select(ctx, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	warmEvals := EvalCount()
	samePicks(t, "warm restore", got, want)

	ResetEvalCount()
	if _, err := NewSelectionState(0).Select(ctx, p, 2); err != nil {
		t.Fatal(err)
	}
	coldEvals := EvalCount()
	// The warm state skips the initial full scan entirely; only the eager
	// per-pick refreshes remain.
	if warmEvals*2 > coldEvals {
		t.Errorf("warm restore cost %d evals, cold %d — want >=2x fewer", warmEvals, coldEvals)
	}
}

// TestAssignCacheRoundTripWarm is the same property for the assignment
// engine.
func TestAssignCacheRoundTripWarm(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 8, 6, assignExperts())
	live := NewAssignState(ablationCost, 0, 0)
	if _, err := live.SelectAssign(ctx, p, 4); err != nil {
		t.Fatal(err)
	}
	c := live.ExportCache()
	if c == nil {
		t.Fatal("warm state exported nil cache")
	}
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back SelectionCache
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}

	want, err := (CostGreedy{Cost: ablationCost}).SelectAssign(ctx, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewAssignState(ablationCost, 0, 0)
	if err := warm.RestoreCache(&back); err != nil {
		t.Fatal(err)
	}
	ResetEvalCount()
	got, err := warm.SelectAssign(ctx, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	warmEvals := EvalCount()
	sameAssigns(t, "warm restore", got, want)

	ResetEvalCount()
	if _, err := NewAssignState(ablationCost, 0, 0).SelectAssign(ctx, p, 4); err != nil {
		t.Fatal(err)
	}
	coldEvals := EvalCount()
	if warmEvals*2 > coldEvals {
		t.Errorf("warm restore cost %d evals, cold %d — want >=2x fewer", warmEvals, coldEvals)
	}
}

// TestSelectionCacheDirtyTasksRescan: tasks exported as dirty re-scan on
// first use and the picks still match.
func TestSelectionCacheDirtyTasksRescan(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 6, 5, experts(0.85, 0.95))
	state := NewSelectionState(0)
	if _, err := state.Select(ctx, p, 2); err != nil {
		t.Fatal(err)
	}
	state.Invalidate(1, 3)
	c := state.ExportCache()
	if !c.Tasks[1].Dirty || !c.Tasks[3].Dirty {
		t.Fatalf("invalidated tasks exported clean: %+v", c.Tasks)
	}
	warm := NewSelectionState(0)
	if err := warm.RestoreCache(c); err != nil {
		t.Fatal(err)
	}
	want, err := (Greedy{}).Select(ctx, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Select(ctx, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	samePicks(t, "dirty tasks", got, want)
}

// TestSelectionCacheMismatchFallsBackCold: a cache from a different crowd
// or shape is ignored, not trusted.
func TestSelectionCacheMismatchFallsBackCold(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 4, 6, experts(0.85, 0.95))
	c := warmSelectionState(t, ctx, p)

	other := p
	other.Experts = experts(0.7, 0.99)
	want, err := (Greedy{}).Select(ctx, other, 2)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSelectionState(0)
	if err := warm.RestoreCache(c); err != nil {
		t.Fatal(err)
	}
	got, err := warm.Select(ctx, other, 2)
	if err != nil {
		t.Fatal(err)
	}
	samePicks(t, "crowd mismatch", got, want)
}

// TestSelectionCacheKindMismatch: restoring a cache into the wrong engine
// errors rather than guessing.
func TestSelectionCacheKindMismatch(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 4, 3, assignExperts())
	g := warmSelectionState(t, ctx, p)
	if err := NewAssignState(nil, 0, 0).RestoreCache(g); err == nil {
		t.Error("assign engine accepted a greedy cache")
	}
	a := NewAssignState(nil, 0, 0)
	if _, err := a.SelectAssign(ctx, p, 2); err != nil {
		t.Fatal(err)
	}
	if err := NewSelectionState(0).RestoreCache(a.ExportCache()); err == nil {
		t.Error("greedy engine accepted an assign cache")
	}
}

// TestSelectionCacheValidate covers the structural checks.
func TestSelectionCacheValidate(t *testing.T) {
	cases := []struct {
		name string
		c    SelectionCache
		ok   bool
	}{
		{"good", SelectionCache{Version: CacheVersion, Kind: CacheKindGreedy}, true},
		{"bad-version", SelectionCache{Version: 99, Kind: CacheKindGreedy}, false},
		{"bad-kind", SelectionCache{Version: CacheVersion, Kind: "mystery"}, false},
		{"frozen-shape", SelectionCache{Version: CacheVersion, Kind: CacheKindGreedy,
			Tasks: []TaskGainCache{{Gains: []float64{1, 2}, Frozen: []bool{true}}}}, false},
		{"dirty-skips-shape", SelectionCache{Version: CacheVersion, Kind: CacheKindGreedy,
			Tasks: []TaskGainCache{{Dirty: true, Frozen: []bool{true}}}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("invalid cache accepted")
			}
		})
	}
	var s SelectionState
	if err := s.RestoreCache(nil); err != nil {
		t.Errorf("nil cache: %v", err)
	}
	if s.ExportCache() != nil {
		t.Error("never-synced state exported a cache")
	}
}

// goldenProblem is the fixed problem behind the cache goldens: five
// tasks of mixed width with fact 0 of task 1 frozen from the start.
func goldenProblem(t *testing.T, ce crowd.Crowd) Problem {
	t.Helper()
	p := randomProblem(t, 13, 5, ce)
	p.Frozen = make([][]bool, len(p.Beliefs))
	for i, d := range p.Beliefs {
		p.Frozen[i] = make([]bool, d.NumFacts())
	}
	p.Frozen[1][0] = true
	return p
}

// compareGolden fails unless got matches testdata/name byte for byte.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), got) {
		t.Errorf("%s drifted from its golden:\n got %s\nwant %s", name, got, bytes.TrimSpace(want))
	}
}

// TestSelectionCacheGolden pins the serialized selection cache, which
// every checkpoint record journals, byte for byte. Each engine runs a few
// select → update → invalidate rounds on a fixed problem with one frozen
// fact, scans once more, and leaves one task dirty before exporting.
func TestSelectionCacheGolden(t *testing.T) {
	ctx := context.Background()
	t.Run(CacheKindGreedy, func(t *testing.T) {
		ce := experts(0.85, 0.95)
		p := goldenProblem(t, ce)
		state := NewSelectionState(0)
		rng := rngutil.New(31)
		for round := 0; round < 3; round++ {
			picks, err := state.Select(ctx, p, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range picks {
				truth := func(f int) bool { return (c.Task+f)%2 == 0 }
				if err := p.Beliefs[c.Task].Update(crowd.SimulateAnswerFamily(rng, ce, []int{c.Fact}, truth)); err != nil {
					t.Fatal(err)
				}
				state.Invalidate(c.Task)
			}
		}
		if _, err := state.Select(ctx, p, 3); err != nil {
			t.Fatal(err)
		}
		state.Invalidate(2)
		raw, err := json.Marshal(state.ExportCache())
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, "selection_cache_greedy.json", raw)
	})
	t.Run(CacheKindAssign, func(t *testing.T) {
		p := goldenProblem(t, assignExperts())
		state := NewAssignState(ablationCost, 0, 0)
		rng := rngutil.New(31)
		for round := 0; round < 3; round++ {
			units, err := state.SelectAssign(ctx, p, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range units {
				truth := func(f int) bool { return (u.Task+f)%2 == 0 }
				if err := p.Beliefs[u.Task].Update(crowd.SimulateAnswerFamily(rng, crowd.Crowd{u.Worker}, []int{u.Fact}, truth)); err != nil {
					t.Fatal(err)
				}
				state.Invalidate(u.Task)
			}
		}
		if _, err := state.SelectAssign(ctx, p, 5); err != nil {
			t.Fatal(err)
		}
		state.Invalidate(2)
		raw, err := json.Marshal(state.ExportCache())
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, "selection_cache_assign.json", raw)
	})
}
