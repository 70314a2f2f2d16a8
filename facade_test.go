package hcrowd_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"hcrowd"
)

// TestFacadeNewerSurfaces smoke-tests the later public-API additions so
// the wiring between the façade and the internals stays covered.
func TestFacadeNewerSurfaces(t *testing.T) {
	// Priors.
	prior, err := hcrowd.MarkovPrior(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	blended, err := hcrowd.BeliefFromMarginalsWithPrior([]float64{0.8, 0.5, 0.5}, prior)
	if err != nil {
		t.Fatal(err)
	}
	if blended.Correlation(0, 1) <= 0.5 {
		t.Error("prior correlation not injected")
	}
	if _, err := hcrowd.OneHotPrior(4); err != nil {
		t.Fatal(err)
	}

	// Crowd constructors and confusion estimation.
	pool, err := hcrowd.NewCrowd(hcrowd.NewRand(1), hcrowd.DefaultCrowdConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 8 {
		t.Fatalf("pool size %d", len(pool))
	}
	truth := func(f int) bool { return f%2 == 0 }
	facts := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var fam hcrowd.AnswerFamily
	for _, w := range pool {
		vals := make([]bool, len(facts))
		for i, f := range facts {
			vals[i] = truth(f)
		}
		fam = append(fam, hcrowd.AnswerSet{Worker: w, Facts: facts, Values: vals})
	}
	conf := hcrowd.EstimateConfusion(pool, []hcrowd.AnswerFamily{fam}, truth)
	if err := conf.Validate(); err != nil {
		t.Fatal(err)
	}

	// Extra aggregators.
	if got := len(hcrowd.ExtraAggregators()); got != 2 {
		t.Errorf("ExtraAggregators = %d", got)
	}
	if hcrowd.AggregatorMust("DS", 1).Name() != "DS" {
		t.Error("AggregatorMust(DS)")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AggregatorMust(unknown) did not panic")
			}
		}()
		hcrowd.AggregatorMust("nope", 1)
	}()
}

func TestFacadeMultiClassFlow(t *testing.T) {
	cfg := hcrowd.DefaultMultiClassConfig()
	cfg.NumItems = 30
	ds, err := hcrowd.GenerateMultiClass(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := hcrowd.CatFromOneHot(ds.Prelim, ds.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []hcrowd.CatAggregator{hcrowd.CatMajorityVote(), hcrowd.CatDawidSkene()} {
		res, err := agg.AggregateCat(cat)
		if err != nil {
			t.Fatalf("%s: %v", agg.Name(), err)
		}
		if len(res.Posterior) != 30 {
			t.Fatalf("%s: posterior size %d", agg.Name(), len(res.Posterior))
		}
	}
	if _, err := hcrowd.NewCatMatrix(5, 3, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	classes := hcrowd.ClassOf(ds.Truth, ds.Tasks)
	if len(classes) != 30 {
		t.Fatalf("ClassOf size %d", len(classes))
	}
	// Full run with categorical init + constraint.
	res, err := hcrowd.Run(context.Background(), ds, hcrowd.Config{
		K:      1,
		Budget: 10,
		Init:   hcrowd.CatInitializer(hcrowd.CatDawidSkene(), ds.Tasks),
		Source: hcrowd.NewSimulatedSource(3, ds),
		Prior:  hcrowd.OneHotPrior,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < res.InitQuality {
		t.Error("multiclass run lost quality")
	}
}

func TestFacadeCheckpointAndCostAware(t *testing.T) {
	cfg := hcrowd.DefaultSentiConfig()
	cfg.NumTasks = 10
	ds, err := hcrowd.GenerateSentiLike(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := hcrowd.Config{K: 1, Budget: 10, Source: hcrowd.NewSimulatedSource(6, ds)}
	res, err := hcrowd.Run(context.Background(), ds, run)
	if err != nil {
		t.Fatal(err)
	}
	ck := hcrowd.NewCheckpoint(res)
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := hcrowd.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	run2 := run
	run2.Budget = 20
	run2.Source = hcrowd.NewSimulatedSource(7, ds)
	run2.From = back
	resumed, err := hcrowd.Run(context.Background(), ds, run2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resumed.BudgetSpent-20) > 1e-9 {
		t.Errorf("resumed spend %v", resumed.BudgetSpent)
	}
	ca, err := hcrowd.RunCostAware(context.Background(), ds, run)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Quality < ca.InitQuality {
		t.Error("cost-aware run lost quality")
	}
}

func TestFacadeAnswersCSV(t *testing.T) {
	in := "fact,worker,value\n0,a,yes\n1,b,no\n"
	m, err := hcrowd.ReadAnswersCSV(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFacts() != 2 || m.NumWorkers() != 2 {
		t.Fatalf("shape %d/%d", m.NumFacts(), m.NumWorkers())
	}
}
