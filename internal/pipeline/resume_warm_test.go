package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/taskselect"
)

// warmFlavor abstracts the two loop flavors for the staged-resume tests.
type warmFlavor struct {
	name   string
	config func(t *testing.T, ds *dataset.Dataset) Config
	run    func(ctx context.Context, ds *dataset.Dataset, cfg Config) (*Result, error)
}

func warmFlavors() []warmFlavor {
	uniform := func(stop *StopRule) func(t *testing.T, ds *dataset.Dataset) Config {
		return func(t *testing.T, ds *dataset.Dataset) Config {
			cfg := fig2StyleConfig(t, ds, 40)
			cfg.Stop = stop
			return cfg
		}
	}
	withCost := func(stop *StopRule) func(t *testing.T, ds *dataset.Dataset) Config {
		return func(t *testing.T, ds *dataset.Dataset) Config {
			cfg := fig2StyleConfig(t, ds, 40)
			cfg.Budget = 30
			cfg.Stop = stop
			pricey := ""
			if ce, _ := ds.Split(); len(ce) > 0 {
				pricey = ce[0].ID
			}
			cfg.Cost = func(w crowd.Worker) float64 {
				if w.ID == pricey {
					return 2
				}
				return 1
			}
			return cfg
		}
	}
	return []warmFlavor{
		{"uniform", uniform(nil), Run},
		{"uniform-stop", uniform(&StopRule{C: 2, Eps: 0.1}), Run},
		{"cost-aware", withCost(nil), RunCostAware},
		{"cost-aware-stop", withCost(&StopRule{C: 2, Eps: 0.1}), RunCostAware},
	}
}

// roundTrace renders one round's record; %v prints floats in shortest
// round-tripping form, so equal strings mean bit-identical rounds.
func roundTrace(rs RoundStats) string {
	return fmt.Sprintf("picks=%v spent=%v q=%v acc=%v", rs.Picks, rs.BudgetSpent, rs.Quality, rs.Accuracy)
}

// beliefBytes renders the final beliefs for byte comparison.
func beliefBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	raw, err := json.Marshal(res.Beliefs)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// stagedResume runs a flavor to budget b1, round-trips a checkpoint
// through its JSON serialization, and resumes to the total budget with
// the SAME answer-source instance (its seeded RNG continues mid-stream,
// exactly as a restarted job re-attaching to a live source would see).
// warm == false strips the selection cache to force a cold first scan.
// Returns the two stage results and the conditional-entropy evaluations
// the resume consumed.
func stagedResume(t *testing.T, fl warmFlavor, b1, total float64, warm bool) (*Result, *Result, int64) {
	t.Helper()
	ctx := context.Background()
	ds := smallDataset(t, 4)
	cfg := fl.config(t, ds) // cfg.Source's RNG is shared by both stages
	cfg1 := cfg
	cfg1.Budget = b1
	part1, err := fl.run(ctx, ds, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewCheckpoint(part1).Write(&buf); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if warm && ck.Selection == nil {
		t.Fatal("checkpoint carries no selection cache")
	}
	if !warm {
		ck.Selection = nil
	}
	cfg2 := cfg
	cfg2.Budget = total
	cfg2.From = ck
	taskselect.ResetEvalCount()
	resumed, err := fl.run(ctx, ds, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	return part1, resumed, taskselect.EvalCount()
}

// TestWarmResumeDeterministicGivenSeed is the warm-vs-cold equivalence
// property of the ISSUE: a run checkpointed mid-stream and resumed with
// the serialized selection cache must produce picks and final beliefs
// byte-identical to the uninterrupted run — for both loop flavors, with
// and without the stopping rule, warm or cold. The name keeps it inside
// the -count=2 determinism suite.
func TestWarmResumeDeterministicGivenSeed(t *testing.T) {
	ctx := context.Background()
	for _, fl := range warmFlavors() {
		t.Run(fl.name, func(t *testing.T) {
			ds := smallDataset(t, 4)
			cfg := fl.config(t, ds)
			full, err := fl.run(ctx, ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const r = 2 // checkpoint after this many rounds
			if len(full.Rounds) < r+2 {
				t.Fatalf("full run finished in %d rounds, need >= %d for a meaningful split", len(full.Rounds), r+2)
			}
			b1 := full.Rounds[r-1].BudgetSpent
			for _, mode := range []struct {
				name string
				warm bool
			}{{"warm", true}, {"cold", false}} {
				t.Run(mode.name, func(t *testing.T) {
					part1, resumed, _ := stagedResume(t, fl, b1, cfg.Budget, mode.warm)
					if len(part1.Rounds) != r {
						t.Fatalf("stage 1 ran %d rounds on budget %v, want %d", len(part1.Rounds), b1, r)
					}
					for i, rs := range part1.Rounds {
						if got, want := roundTrace(rs), roundTrace(full.Rounds[i]); got != want {
							t.Fatalf("stage-1 round %d diverged:\n got  %.200s\n want %.200s", i+1, got, want)
						}
					}
					if len(resumed.Rounds) != len(full.Rounds)-r {
						t.Fatalf("resume ran %d rounds, want %d", len(resumed.Rounds), len(full.Rounds)-r)
					}
					for i, rs := range resumed.Rounds {
						if got, want := roundTrace(rs), roundTrace(full.Rounds[r+i]); got != want {
							t.Fatalf("resumed round %d diverged:\n got  %.200s\n want %.200s", r+i+1, got, want)
						}
					}
					if got, want := beliefBytes(t, resumed), beliefBytes(t, full); !bytes.Equal(got, want) {
						t.Error("final beliefs differ from the uninterrupted run")
					}
					if got, want := fmt.Sprintf("%v", resumed.Labels), fmt.Sprintf("%v", full.Labels); got != want {
						t.Errorf("final labels differ:\n got  %s\n want %s", got, want)
					}
					if resumed.BudgetSpent != full.BudgetSpent {
						t.Errorf("cumulative spend %v, want %v", resumed.BudgetSpent, full.BudgetSpent)
					}
				})
			}
		})
	}
}

// TestWarmResumeSkipsFullRescan verifies the warm sections pay off: a
// resume primed with the serialized selection cache must spend strictly
// fewer conditional-entropy evaluations than a cold resume of the same
// checkpoint, because only the tasks touched by the last pre-checkpoint
// round re-scan — unchanged tasks reuse their cached gains verbatim.
func TestWarmResumeSkipsFullRescan(t *testing.T) {
	ctx := context.Background()
	for _, fl := range warmFlavors() {
		t.Run(fl.name, func(t *testing.T) {
			ds := smallDataset(t, 4)
			cfg := fl.config(t, ds)
			full, err := fl.run(ctx, ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const r = 2
			if len(full.Rounds) < r+2 {
				t.Fatalf("full run finished in %d rounds", len(full.Rounds))
			}
			b1 := full.Rounds[r-1].BudgetSpent
			_, warmRes, warmEvals := stagedResume(t, fl, b1, cfg.Budget, true)
			_, coldRes, coldEvals := stagedResume(t, fl, b1, cfg.Budget, false)
			if got, want := beliefBytes(t, warmRes), beliefBytes(t, coldRes); !bytes.Equal(got, want) {
				t.Error("warm and cold resumes disagree on final beliefs")
			}
			if warmEvals >= coldEvals {
				t.Errorf("warm resume cost %d evals, cold %d — the cache saved nothing", warmEvals, coldEvals)
			}
		})
	}
}

// TestCheckpointOldFormatLoads: a checkpoint from before the versioned
// format — beliefs and spend only — still reads and resumes (cold).
func TestCheckpointOldFormatLoads(t *testing.T) {
	ctx := context.Background()
	ds := smallDataset(t, 4)
	cfg := baseConfig(ds)
	cfg.Budget = 20
	res, err := Run(ctx, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	beliefs, err := json.Marshal(res.Beliefs)
	if err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf(`{"beliefs":%s,"budget_spent":%v}`, beliefs, res.BudgetSpent)
	ck, err := ReadCheckpoint(strings.NewReader(old))
	if err != nil {
		t.Fatalf("old-format checkpoint rejected: %v", err)
	}
	if ck.Version != 0 || ck.Selection != nil || ck.StopVotes != nil {
		t.Fatalf("old-format checkpoint grew warm sections: %+v", ck)
	}
	cfg2 := baseConfig(ds)
	cfg2.Budget = 40
	cfg2.From = ck
	resumed, err := Run(ctx, ds, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.BudgetSpent <= res.BudgetSpent {
		t.Errorf("resume from old checkpoint spent nothing: %v -> %v", res.BudgetSpent, resumed.BudgetSpent)
	}
}

// TestResumeFlavorMismatch: resuming a checkpoint under the other loop
// flavor is an error naming both flavors — it used to succeed and
// quietly run the other algorithm cold. A cache-less checkpoint (the
// selection cache stripped, as in a version-0 file, or a uniform run
// whose selector is not incremental) still resumes under either flavor.
func TestResumeFlavorMismatch(t *testing.T) {
	ctx := context.Background()
	checkpointOf := func(t *testing.T, fl warmFlavor, mutate func(*Config)) (*dataset.Dataset, Config, *Checkpoint) {
		t.Helper()
		ds := smallDataset(t, 4)
		cfg := fl.config(t, ds)
		cfg1 := cfg
		cfg1.Budget = 12
		if mutate != nil {
			mutate(&cfg1)
		}
		part1, err := fl.run(ctx, ds, cfg1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := NewCheckpoint(part1).Write(&buf); err != nil {
			t.Fatal(err)
		}
		ck, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		cfg.From = ck
		return ds, cfg, ck
	}
	flavors := warmFlavors()
	uniform, costAware := flavors[0], flavors[2]
	for _, tc := range []struct {
		name      string
		wrote, to warmFlavor
	}{{"uniform-to-cost-aware", uniform, costAware}, {"cost-aware-to-uniform", costAware, uniform}} {
		t.Run(tc.name, func(t *testing.T) {
			ds, cfg, _ := checkpointOf(t, tc.wrote, nil)
			res, err := tc.to.run(ctx, ds, cfg)
			if err == nil {
				t.Fatalf("mismatched resume succeeded with %d rounds", len(res.Rounds))
			}
			for _, name := range []string{"uniform", "cost-aware"} {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("error %q does not name the %s flavor", err, name)
				}
			}
			// The same checkpoint without its selection cache resumes.
			ds, cfg, ck := checkpointOf(t, tc.wrote, nil)
			ck.Selection = nil
			if _, err := tc.to.run(ctx, ds, cfg); err != nil {
				t.Errorf("cache-less checkpoint rejected: %v", err)
			}
		})
	}
	t.Run("exact-selector-to-cost-aware", func(t *testing.T) {
		ds, cfg, ck := checkpointOf(t, uniform, func(c *Config) { c.Selector = taskselect.Exact{} })
		if ck.Selection != nil {
			t.Fatal("a non-incremental selector wrote a selection cache")
		}
		if _, err := costAware.run(ctx, ds, cfg); err != nil {
			t.Errorf("cache-less checkpoint rejected: %v", err)
		}
	})
}
