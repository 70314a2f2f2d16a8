package pipeline

import (
	"context"
	"errors"
	"math"
	"testing"

	"hcrowd/internal/crowd"
	"hcrowd/internal/taskselect"
)

func TestRunCostAwareImproves(t *testing.T) {
	ds := smallDataset(t, 90)
	cfg := baseConfig(ds)
	cfg.Budget = 40
	res, err := RunCostAware(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality <= res.InitQuality {
		t.Errorf("no quality gain: %v -> %v", res.InitQuality, res.Quality)
	}
	if res.BudgetSpent > cfg.Budget {
		t.Errorf("overspent: %v > %v", res.BudgetSpent, cfg.Budget)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds")
	}
}

func TestRunCostAwareSkewedPricesFavorCheapExpert(t *testing.T) {
	// One expert is 10x the price of the other at similar accuracy: the
	// cost-aware selector must route most answers to the cheap one.
	ds := smallDataset(t, 91)
	ce, _ := ds.Split()
	if len(ce) < 2 {
		t.Skip("need two experts")
	}
	pricey := ce[0].ID
	cfg := baseConfig(ds)
	cfg.Budget = 30
	cfg.Cost = func(w crowd.Worker) float64 {
		if w.ID == pricey {
			return 10
		}
		return 1
	}
	res, err := RunCostAware(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetSpent > cfg.Budget {
		t.Errorf("overspent %v", res.BudgetSpent)
	}
	// Reconstruct per-expert usage from spend: with 30 budget and cheap
	// answers costing 1, heavy pricey usage would blow past the round
	// count. Check quality still improved.
	if res.Quality <= res.InitQuality {
		t.Error("skewed prices prevented improvement")
	}
}

func TestRunCostAwareAgainstUniformAtEqualSpend(t *testing.T) {
	// With strongly skewed prices, buying answers unit-by-unit must beat
	// (or match) the uniform design that always pays for every expert.
	var costSum, uniformSum float64
	const trials = 3
	for s := int64(0); s < trials; s++ {
		ds := smallDataset(t, 600+s)
		ce, _ := ds.Split()
		pricey := ce[0].ID
		costFn := func(w crowd.Worker) float64 {
			if w.ID == pricey {
				return 5
			}
			return 1
		}
		cfg := baseConfig(ds)
		cfg.Budget = 36
		cfg.Cost = costFn
		cfg.Source = NewSimulated(700+s, ds)
		ca, err := RunCostAware(context.Background(), ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfgU := baseConfig(ds)
		cfgU.Budget = 36
		cfgU.Cost = costFn
		cfgU.Source = NewSimulated(700+s, ds)
		uni, err := Run(context.Background(), ds, cfgU)
		if err != nil {
			t.Fatal(err)
		}
		costSum += ca.Quality
		uniformSum += uni.Quality
	}
	if costSum < uniformSum-0.5 {
		t.Errorf("cost-aware total quality %v below uniform %v at equal spend",
			costSum/trials, uniformSum/trials)
	}
}

func TestRunCostAwareValidation(t *testing.T) {
	ds := smallDataset(t, 92)
	ctx := context.Background()
	if _, err := RunCostAware(ctx, ds, Config{K: 0, Budget: 5, Source: NewSimulated(1, ds)}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := RunCostAware(ctx, ds, Config{K: 1, Budget: 5}); err == nil {
		t.Error("nil source accepted")
	}
	bad := baseConfig(ds)
	bad.Cost = func(crowd.Worker) float64 { return -1 }
	if _, err := RunCostAware(ctx, ds, bad); err == nil {
		t.Error("negative cost accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := RunCostAware(cancelled, ds, baseConfig(ds)); err == nil {
		t.Error("cancellation ignored")
	}
}

func TestRunCostAwareZeroBudget(t *testing.T) {
	ds := smallDataset(t, 93)
	cfg := baseConfig(ds)
	cfg.Budget = 0
	res, err := RunCostAware(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 0 || res.BudgetSpent != 0 {
		t.Error("zero budget ran rounds")
	}
}

// TestNewCostPlanEmptyCrowd pins the constructor-level guard: an empty
// expert crowd must fail with taskselect.ErrNoExperts instead of
// computing a NaN mean cost (meanCost /= 0) that would poison the
// per-round budget chunking. The public entry points pre-check the
// crowd too, but the plan must be safe on its own.
func TestNewCostPlanEmptyCrowd(t *testing.T) {
	plan, err := newCostPlan(Config{K: 1, Budget: 5}, nil, nil)
	if !errors.Is(err, taskselect.ErrNoExperts) {
		t.Fatalf("err = %v, want taskselect.ErrNoExperts", err)
	}
	if plan != nil {
		t.Fatalf("plan = %+v, want nil", plan)
	}
	if _, err := newCostPlan(Config{K: 1, Budget: 5}, crowd.Crowd{}, nil); !errors.Is(err, taskselect.ErrNoExperts) {
		t.Fatalf("empty (non-nil) crowd: err = %v, want taskselect.ErrNoExperts", err)
	}
}

// TestBadCostRejected is the regression test for per-answer price
// validation in both loop flavours: a zero, negative or NaN price must
// fail the run up front. A NaN price used to slip past a `c <= 0` check,
// letting the cost-aware chunk go NaN so the remaining budget never
// reached zero, and the uniform loop had no check at all and quietly ran
// zero rounds.
func TestBadCostRejected(t *testing.T) {
	ds := smallDataset(t, 94)
	ce, _ := ds.Split()
	ctx := context.Background()
	for _, price := range []float64{0, -1, math.NaN()} {
		cfg := baseConfig(ds)
		cfg.Budget = 10
		cfg.Cost = func(w crowd.Worker) float64 {
			if w.ID == ce[0].ID {
				return price
			}
			return 1
		}
		if res, err := Run(ctx, ds, cfg); err == nil {
			t.Errorf("Run accepted price %v (%d rounds, spent %v)", price, len(res.Rounds), res.BudgetSpent)
		}
		if res, err := RunCostAware(ctx, ds, cfg); err == nil {
			t.Errorf("RunCostAware accepted price %v (spent %v, overspent %v)", price, res.BudgetSpent, res.Overspent)
		}
	}
}
