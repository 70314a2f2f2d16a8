package taskselect

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hcrowd/internal/crowd"
	"hcrowd/internal/rngutil"
)

// ablationCost mirrors the pricing of the ablation-cost experiment:
// accuracy buys are progressively more expensive.
func ablationCost(w crowd.Worker) float64 {
	return 1 + 8*(w.Accuracy-0.9)
}

// sameAssigns fails the test unless the two assignment selectors bought
// identical unit sets.
func sameAssigns(t *testing.T, label string, got, want []TaskAssign) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: incremental bought %v, cold bought %v", label, got, want)
	}
	for i := range got {
		if got[i].Task != want[i].Task || got[i].Fact != want[i].Fact || got[i].Worker.ID != want[i].Worker.ID {
			t.Fatalf("%s: buy %d differs: incremental %v, cold %v", label, i, got, want)
		}
	}
}

func assignExperts() crowd.Crowd {
	return crowd.Crowd{
		{ID: "A", Accuracy: 0.91},
		{ID: "B", Accuracy: 0.95},
		{ID: "C", Accuracy: 0.99},
	}
}

func TestAssignStateMatchesCostGreedySingleShot(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 6; seed++ {
		for _, budget := range []float64{1, 3.5, 8, 20} {
			p := randomProblem(t, seed, 4, assignExperts())
			want, err := (CostGreedy{Cost: ablationCost}).SelectAssign(ctx, p, budget)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewAssignState(ablationCost, 0, 0).SelectAssign(ctx, p, budget)
			if err != nil {
				t.Fatal(err)
			}
			sameAssigns(t, fmt.Sprintf("seed=%d budget=%g", seed, budget), got, want)
		}
	}
}

// TestAssignStateMatchesCostGreedyAcrossRounds is the core equivalence
// property: driven like the cost-aware pipeline drives it (buy, apply the
// bought answers to the touched tasks' beliefs, invalidate, repeat), the
// incremental engine must buy the same units as a cold CostGreedy every
// round.
func TestAssignStateMatchesCostGreedyAcrossRounds(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name    string
		cost    func(crowd.Worker) float64
		workers int
		frozen  bool
		problem func(*testing.T) Problem // nil: randomProblem over assignExperts
	}{
		{"unit-cost-serial", nil, 0, false, nil},
		{"ablation-cost-parallel", ablationCost, 4, false, nil},
		{"with-freezing", ablationCost, 2, true, nil},
		{"ties", nil, 2, false, func(t *testing.T) Problem { return tiedProblem(t, experts(0.9, 0.9, 0.9)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ce := assignExperts()
			p := randomProblem(t, 3, 5, ce)
			if tc.problem != nil {
				p = tc.problem(t)
			}
			if tc.frozen {
				p.Frozen = make([][]bool, len(p.Beliefs))
				for i, d := range p.Beliefs {
					p.Frozen[i] = make([]bool, d.NumFacts())
				}
			}
			state := NewAssignState(tc.cost, 0, tc.workers)
			rng := rngutil.New(77)
			for round := 0; round < 6; round++ {
				want, err := (CostGreedy{Cost: tc.cost}).SelectAssign(ctx, p, 6)
				if err != nil {
					t.Fatal(err)
				}
				got, err := state.SelectAssign(ctx, p, 6)
				if err != nil {
					t.Fatal(err)
				}
				sameAssigns(t, fmt.Sprintf("round %d", round), got, want)
				if len(got) == 0 {
					break
				}
				// Apply one simulated answer family per bought unit, as the
				// pipeline would, then invalidate exactly the touched tasks.
				touched := make(map[int]bool)
				for _, u := range got {
					truth := func(f int) bool { return (u.Task+f)%2 == 0 }
					fam := crowd.SimulateAnswerFamily(rng, crowd.Crowd{u.Worker}, []int{u.Fact}, truth)
					if err := p.Beliefs[u.Task].Update(fam); err != nil {
						t.Fatal(err)
					}
					touched[u.Task] = true
				}
				for task := range touched {
					if tc.frozen && round >= 2 {
						p.Frozen[task][0] = true
					}
					state.Invalidate(task)
				}
			}
		})
	}
}

// TestAssignStateSteadyStateEvals verifies the engine's reason to exist:
// after the cold round, a buy round that touched one task must cost far
// fewer CondEntropyAssign evaluations than a full CostGreedy scan.
func TestAssignStateSteadyStateEvals(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 5, 20, assignExperts())
	state := NewAssignState(ablationCost, 0, 0)
	if _, err := state.SelectAssign(ctx, p, 3); err != nil {
		t.Fatal(err) // cold round pays the full scan
	}

	countRound := func(sel AssignSelector) int64 {
		t.Helper()
		ResetEvalCount()
		picks, err := sel.SelectAssign(ctx, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(picks) == 0 {
			t.Fatal("no units bought")
		}
		return EvalCount()
	}
	full := countRound(CostGreedy{Cost: ablationCost})
	state.Invalidate(0)
	incr := countRound(state)
	if incr*2 > full {
		t.Errorf("steady-state round cost %d evals, cold scan %d — want >=2x fewer", incr, full)
	}
}

// TestAssignStateCrowdChangeResets drives the crowd-swap scenario: a new
// expert crowd must invalidate every crowd-derived memo.
func TestAssignStateCrowdChangeResets(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 9, 4, assignExperts())
	state := NewAssignState(nil, 0, 0)
	if _, err := state.SelectAssign(ctx, p, 4); err != nil {
		t.Fatal(err)
	}
	p.Experts = crowd.Crowd{{ID: "Z", Accuracy: 0.97}}
	want, err := (CostGreedy{}).SelectAssign(ctx, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := state.SelectAssign(ctx, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameAssigns(t, "after crowd swap", got, want)
}

// TestAssignStateFrozenDriftWithoutInvalidate checks the safety net:
// freezing a fact without an explicit Invalidate must still be noticed.
func TestAssignStateFrozenDriftWithoutInvalidate(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 11, 3, assignExperts())
	state := NewAssignState(nil, 0, 0)
	first, err := state.SelectAssign(ctx, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 {
		t.Fatalf("bought %v", first)
	}
	p.Frozen = make([][]bool, len(p.Beliefs))
	for i, d := range p.Beliefs {
		p.Frozen[i] = make([]bool, d.NumFacts())
	}
	p.Frozen[first[0].Task][first[0].Fact] = true
	want, err := (CostGreedy{}).SelectAssign(ctx, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := state.SelectAssign(ctx, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameAssigns(t, "after freeze", got, want)
	if got[0].Task == first[0].Task && got[0].Fact == first[0].Fact {
		t.Errorf("frozen fact %v re-bought", first[0])
	}
}

// TestAssignStateMaxPerTaskCap exercises the assignment cap: with one
// task and a tiny cap the engine must stop buying units for it exactly
// where CostGreedy does.
func TestAssignStateMaxPerTaskCap(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 2, 1, assignExperts())
	want, err := (CostGreedy{MaxAssignsPerTask: 2}).SelectAssign(ctx, p, 50)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewAssignState(nil, 2, 0).SelectAssign(ctx, p, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("cold bought %d units, want the cap of 2", len(want))
	}
	sameAssigns(t, "capped", got, want)
}

// TestAssignStateNonPositiveCost mirrors CostGreedy's validation.
func TestAssignStateNonPositiveCost(t *testing.T) {
	p := randomProblem(t, 1, 2, assignExperts())
	bad := func(crowd.Worker) float64 { return 0 }
	if _, err := NewAssignState(bad, 0, 0).SelectAssign(context.Background(), p, 5); err == nil {
		t.Fatal("zero-cost worker accepted")
	}
}

// TestNaNCostRejected is the regression test for price validation: a NaN
// price passed the old `c <= 0` checks, so both the reference CostGreedy
// and the incremental engine must reject it like a non-positive one.
func TestNaNCostRejected(t *testing.T) {
	p := randomProblem(t, 1, 2, assignExperts())
	nan := func(w crowd.Worker) float64 {
		if w.ID == "B" {
			return math.NaN()
		}
		return 1
	}
	if _, err := (CostGreedy{Cost: nan}).SelectAssign(context.Background(), p, 5); err == nil {
		t.Error("CostGreedy accepted a NaN-cost worker")
	}
	if _, err := NewAssignState(nan, 0, 0).SelectAssign(context.Background(), p, 5); err == nil {
		t.Error("AssignState accepted a NaN-cost worker")
	}
}
