package pipeline

import (
	"context"
	"testing"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/rngutil"
)

func TestInitBeliefsCoupledInjectsCorrelation(t *testing.T) {
	ds := smallDataset(t, 31)
	coupled, err := initBeliefs(ds, Config{PriorCoupling: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := initBeliefs(ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Averaged over tasks, adjacent-fact agreement must exceed the
	// product-form baseline.
	var cAgree, fAgree float64
	for i := range coupled {
		cAgree += coupled[i].Correlation(0, 1)
		fAgree += flat[i].Correlation(0, 1)
	}
	if cAgree <= fAgree {
		t.Errorf("coupling did not raise agreement: %v vs %v", cAgree, fAgree)
	}
}

func TestEstimateCouplingRecoversGenerator(t *testing.T) {
	// Strongly coupled generator -> high estimate; independent -> near 0.
	gen := func(alpha float64) float64 {
		cfg := dataset.DefaultSentiConfig()
		cfg.NumTasks = 300
		cfg.CorrelationAlpha = alpha
		ds, err := dataset.SentiLike(rngutil.New(5), cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ds.EstimateCoupling()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	strong := gen(0.1) // couple = 1/1.1 ≈ 0.91
	weak := gen(100)   // couple ≈ 0.01
	if strong < 0.4 {
		t.Errorf("strong coupling estimated at %v", strong)
	}
	if weak > 0.15 {
		t.Errorf("independent data estimated at coupling %v", weak)
	}
	if strong <= weak {
		t.Errorf("estimates not ordered: %v <= %v", strong, weak)
	}
}

func TestRunWithPriorCouplingImprovesOrMatches(t *testing.T) {
	// With a correlated prior, expert evidence propagates within a task;
	// accuracy at equal budget should not be worse (averaged over seeds).
	var with, without float64
	const trials = 3
	for s := int64(0); s < trials; s++ {
		ds := smallDataset(t, 400+s)
		couple, err := ds.EstimateCoupling()
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(ds)
		cfg.Budget = 60
		cfg.Source = NewSimulated(500+s, ds)
		cfg.PriorCoupling = couple
		r1, err := Run(context.Background(), ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg2 := baseConfig(ds)
		cfg2.Budget = 60
		cfg2.Source = NewSimulated(500+s, ds)
		r2, err := Run(context.Background(), ds, cfg2)
		if err != nil {
			t.Fatal(err)
		}
		with += r1.Accuracy
		without += r2.Accuracy
	}
	if with < without-0.02*trials {
		t.Errorf("coupled prior hurt accuracy: %v vs %v", with/trials, without/trials)
	}
}

func TestRunTiersWithCoupling(t *testing.T) {
	ds := smallDataset(t, 41)
	ce, _ := ds.Split()
	base := Config{K: 1, Source: NewSimulated(42, ds), PriorCoupling: 0.6}
	tiers := []TierConfig{{Experts: ce, Budget: 20}}
	res, err := RunTiers(context.Background(), ds, base, tiers)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < res.InitQuality {
		t.Error("coupled tier run did not improve quality")
	}
}

func TestRunWithOneHotPrior(t *testing.T) {
	cfg := dataset.DefaultMultiClassConfig()
	cfg.NumItems = 40
	ds, err := dataset.MultiClass(rngutil.New(61), cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := Config{
		K:      1,
		Budget: 40,
		Source: NewSimulated(62, ds),
		Prior:  belief.OneHotPrior,
	}
	res, err := Run(context.Background(), ds, run)
	if err != nil {
		t.Fatal(err)
	}
	// The exclusivity constraint must hold in every final belief: only
	// one-hot observations carry mass.
	for tIdx, b := range res.Beliefs {
		for o := 0; o < b.NumObservations(); o++ {
			ones := 0
			for f := 0; f < b.NumFacts(); f++ {
				if belief.Models(o, f) {
					ones++
				}
			}
			if ones != 1 && b.P(o) != 0 {
				t.Fatalf("task %d: non-one-hot observation %b has mass %v", tIdx, o, b.P(o))
			}
		}
	}
	if res.Quality < res.InitQuality {
		t.Error("one-hot run did not improve quality")
	}
	// Prior takes precedence over PriorCoupling.
	run.PriorCoupling = 0.5
	if _, err := Run(context.Background(), ds, run); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithConfusionModelExperts(t *testing.T) {
	// End to end with asymmetric (TPR/TNR) checkers: one expert great at
	// confirming positives, one great at refuting.
	ds := smallDataset(t, 71)
	for i := range ds.Crowd {
		if ds.Crowd[i].Accuracy >= ds.Theta {
			if i%2 == 0 {
				ds.Crowd[i] = crowd.Worker{ID: ds.Crowd[i].ID, TPR: 0.99, TNR: 0.88}
			} else {
				ds.Crowd[i] = crowd.Worker{ID: ds.Crowd[i].ID, TPR: 0.88, TNR: 0.99}
			}
		}
	}
	cfg := baseConfig(ds)
	cfg.Budget = 60
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality <= res.InitQuality {
		t.Errorf("asym experts did not improve quality: %v -> %v", res.InitQuality, res.Quality)
	}
	if res.Accuracy < res.InitAccuracy-0.02 {
		t.Errorf("asym experts hurt accuracy: %v -> %v", res.InitAccuracy, res.Accuracy)
	}
}
