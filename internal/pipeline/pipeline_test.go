package pipeline

import (
	"context"
	"math"
	"testing"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/rngutil"
	"hcrowd/internal/taskselect"
)

func smallDataset(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultSentiConfig()
	cfg.NumTasks = 30
	ds, err := dataset.SentiLike(rngutil.New(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func baseConfig(ds *dataset.Dataset) Config {
	return Config{
		K:      1,
		Budget: 60,
		Source: NewSimulated(777, ds),
	}
}

func TestRunImprovesQualityAndAccuracy(t *testing.T) {
	ds := smallDataset(t, 1)
	res, err := Run(context.Background(), ds, baseConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < res.InitQuality {
		t.Errorf("quality dropped: init %v final %v", res.InitQuality, res.Quality)
	}
	if res.Accuracy < res.InitAccuracy-0.02 {
		t.Errorf("accuracy dropped: init %v final %v", res.InitAccuracy, res.Accuracy)
	}
	if res.Accuracy <= 0.5 {
		t.Errorf("final accuracy %v at chance", res.Accuracy)
	}
	if len(res.Labels) != ds.NumFacts() {
		t.Errorf("labels len %d", len(res.Labels))
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestRunBudgetAccounting(t *testing.T) {
	ds := smallDataset(t, 2)
	cfg := baseConfig(ds)
	cfg.K = 2
	cfg.Budget = 50
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ce, _ := ds.Split()
	perPick := float64(len(ce))
	if res.BudgetSpent > cfg.Budget {
		t.Errorf("overspent: %v > %v", res.BudgetSpent, cfg.Budget)
	}
	// Algorithm 1 line 8: the loop stops only when even one more pick is
	// unaffordable, so at most one pick's worth of budget may be stranded.
	if cfg.Budget-res.BudgetSpent >= perPick {
		t.Errorf("stranded budget: spent %v of %v with picks costing %v",
			res.BudgetSpent, cfg.Budget, perPick)
	}
	var cum float64
	for i, r := range res.Rounds {
		cum += float64(len(r.Picks)) * perPick
		if math.Abs(r.BudgetSpent-cum) > 1e-9 {
			t.Errorf("round %d cumulative budget %v, want %v", i, r.BudgetSpent, cum)
		}
		// Every round is a full K-pick round except a possibly clamped
		// final one that spends the leftover budget.
		if i < len(res.Rounds)-1 {
			if len(r.Picks) != cfg.K {
				t.Errorf("round %d picked %d, want %d", i, len(r.Picks), cfg.K)
			}
		} else if len(r.Picks) < 1 || len(r.Picks) > cfg.K {
			t.Errorf("final round picked %d, want 1..%d", len(r.Picks), cfg.K)
		}
	}
}

func TestRunQualityMonotonePerRound(t *testing.T) {
	// Quality is an expectation improvement, so single rounds can dip, but
	// the trend across the run must be strongly upward; count dips.
	ds := smallDataset(t, 3)
	cfg := baseConfig(ds)
	cfg.Budget = 120
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dips := 0
	prev := res.InitQuality
	for _, r := range res.Rounds {
		if r.Quality < prev-1e-9 {
			dips++
		}
		prev = r.Quality
	}
	if dips > len(res.Rounds)/3 {
		t.Errorf("%d/%d rounds decreased quality", dips, len(res.Rounds))
	}
	if res.Quality <= res.InitQuality {
		t.Errorf("no overall quality gain: %v -> %v", res.InitQuality, res.Quality)
	}
}

func TestRunConfigValidation(t *testing.T) {
	ds := smallDataset(t, 4)
	ctx := context.Background()
	if _, err := Run(ctx, ds, Config{K: 0, Budget: 10, Source: NewSimulated(1, ds)}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Run(ctx, ds, Config{K: 1, Budget: 10}); err == nil {
		t.Error("nil source accepted")
	}
	// Theta above every worker: no experts.
	broken := *ds
	broken.Theta = 0.999
	if _, err := Run(ctx, &broken, Config{K: 1, Budget: 10, Source: NewSimulated(1, ds)}); err == nil {
		t.Error("no-expert dataset accepted")
	}
}

func TestRunZeroBudgetIsInitOnly(t *testing.T) {
	ds := smallDataset(t, 5)
	cfg := baseConfig(ds)
	cfg.Budget = 0
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 0 || res.BudgetSpent != 0 {
		t.Errorf("zero budget ran %d rounds", len(res.Rounds))
	}
	if res.Quality != res.InitQuality {
		t.Errorf("quality moved without checking")
	}
}

func TestRunCancellation(t *testing.T) {
	ds := smallDataset(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, ds, baseConfig(ds)); err == nil {
		t.Error("cancelled run succeeded")
	}
}

func TestRunWithEveryInitializer(t *testing.T) {
	ds := smallDataset(t, 7)
	for _, agg := range aggregate.Registry(5) {
		cfg := baseConfig(ds)
		cfg.Init = agg
		cfg.Budget = 20
		res, err := Run(context.Background(), ds, cfg)
		if err != nil {
			t.Fatalf("init %s: %v", agg.Name(), err)
		}
		if res.Accuracy < 0.5 {
			t.Errorf("init %s: accuracy %v", agg.Name(), res.Accuracy)
		}
	}
}

func TestRunWithEverySelector(t *testing.T) {
	ds := smallDataset(t, 8)
	sels := []taskselect.Selector{
		taskselect.Greedy{},
		taskselect.Random{Rng: rngutil.New(3)},
		taskselect.MaxEntropy{},
	}
	for _, sel := range sels {
		cfg := baseConfig(ds)
		cfg.Selector = sel
		cfg.Budget = 20
		if _, err := Run(context.Background(), ds, cfg); err != nil {
			t.Fatalf("selector %s: %v", sel.Name(), err)
		}
	}
}

func TestGreedyBeatsRandomAtEqualBudget(t *testing.T) {
	// The core claim of Figure 5, end to end: informed selection beats
	// random selection at the same budget (averaged over seeds).
	var greedySum, randomSum float64
	const trials = 3
	for s := int64(0); s < trials; s++ {
		ds := smallDataset(t, 100+s)
		cfgG := baseConfig(ds)
		cfgG.Budget = 80
		cfgG.Source = NewSimulated(200+s, ds)
		resG, err := Run(context.Background(), ds, cfgG)
		if err != nil {
			t.Fatal(err)
		}
		cfgR := cfgG
		cfgR.Selector = taskselect.Random{Rng: rngutil.New(300 + s)}
		cfgR.Source = NewSimulated(200+s, ds)
		resR, err := Run(context.Background(), ds, cfgR)
		if err != nil {
			t.Fatal(err)
		}
		greedySum += resG.Quality
		randomSum += resR.Quality
	}
	if greedySum <= randomSum {
		t.Errorf("greedy quality %v not above random %v", greedySum/trials, randomSum/trials)
	}
}

func TestUniformInitNoHC(t *testing.T) {
	ds := smallDataset(t, 9)
	cfg := baseConfig(ds)
	cfg.UniformInit = true
	cfg.Budget = 30
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform init: entropy per 5-fact task is 5·ln2, quality = −H.
	wantQ := -float64(len(ds.Tasks)) * 5 * math.Ln2
	if math.Abs(res.InitQuality-wantQ) > 1e-6 {
		t.Errorf("uniform init quality %v, want %v", res.InitQuality, wantQ)
	}
	// HC init must start strictly better than the uniform baseline.
	resHC, err := Run(context.Background(), ds, baseConfig(ds))
	if err != nil {
		t.Fatal(err)
	}
	if resHC.InitQuality <= res.InitQuality {
		t.Errorf("HC init %v not above uniform %v", resHC.InitQuality, res.InitQuality)
	}
}

func TestCostModelReducesRounds(t *testing.T) {
	ds := smallDataset(t, 10)
	cfg := baseConfig(ds)
	cfg.Budget = 40
	res1, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Source = NewSimulated(777, ds)
	cfg2.Cost = func(w crowd.Worker) float64 { return 2 } // everything twice as expensive
	res2, err := Run(context.Background(), ds, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rounds) >= len(res1.Rounds) {
		t.Errorf("doubled cost ran %d rounds vs %d at unit cost", len(res2.Rounds), len(res1.Rounds))
	}
}

func TestAccuracyLinkedCost(t *testing.T) {
	// The §III-D extension: cost grows with accuracy. The run must respect
	// the budget under a non-uniform cost.
	ds := smallDataset(t, 11)
	cfg := baseConfig(ds)
	cfg.Budget = 30
	cfg.Cost = func(w crowd.Worker) float64 { return 1 + 4*(w.Accuracy-0.9) }
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetSpent > cfg.Budget {
		t.Errorf("overspent %v of %v", res.BudgetSpent, cfg.Budget)
	}
}

func TestStopRuleFreezesFacts(t *testing.T) {
	// One expert, so every checked fact gets exactly one answer per round
	// and |V_yes − V_no| = 1 > 0 always fires the C=0 rule: with the rule
	// active no fact may ever be rechecked.
	dcfg := dataset.DefaultSentiConfig()
	dcfg.NumTasks = 30
	dcfg.Crowd.NumExpert = 1
	ds, err := dataset.SentiLike(rngutil.New(12), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(ds)
	cfg.Budget = 100
	cfg.Stop = &StopRule{C: 0, Eps: 0}
	res, err2 := Run(context.Background(), ds, cfg)
	if err2 != nil {
		t.Fatal(err2)
	}
	// With freezing, picks must never repeat a (task, fact).
	seen := map[taskselect.Candidate]int{}
	for _, r := range res.Rounds {
		for _, c := range r.Picks {
			seen[c]++
		}
	}
	for c, n := range seen {
		if n > 1 {
			t.Errorf("fact %v rechecked %d times despite stop rule", c, n)
		}
	}
}

func TestStopRuleStoppedMath(t *testing.T) {
	r := StopRule{C: 2, Eps: 0.1}
	if r.Stopped(0, 0) {
		t.Error("stopped with no votes")
	}
	// |5-0| = 5 > 2*sqrt(5) - 0.5 = 3.97 → stopped.
	if !r.Stopped(5, 0) {
		t.Error("decisive votes not stopped")
	}
	// |2-2| = 0 > 2*2-0.4 → not stopped.
	if r.Stopped(2, 2) {
		t.Error("tied votes stopped")
	}
}

func TestRunDeterministicGivenSeeds(t *testing.T) {
	ds := smallDataset(t, 13)
	cfg := baseConfig(ds)
	r1, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := baseConfig(ds) // fresh source, same seed
	r2, err := Run(context.Background(), ds, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Quality != r2.Quality || r1.Accuracy != r2.Accuracy {
		t.Error("same seeds, different outcomes")
	}
}

func TestMaxRounds(t *testing.T) {
	ds := smallDataset(t, 14)
	cfg := baseConfig(ds)
	cfg.Budget = 1e6
	cfg.MaxRounds = 3
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Errorf("ran %d rounds, want 3", len(res.Rounds))
	}
}

func TestRunTiersEquivalentSpecialCase(t *testing.T) {
	// §III-D: with one expert per tier, the concatenation design is
	// equivalent to merging all tiers into one CE group (same total
	// information). Verify both improve quality and land close.
	ds := smallDataset(t, 15)
	ce, _ := ds.Split()
	if len(ce) < 2 {
		t.Skip("need two experts")
	}
	base := Config{K: 1, Source: NewSimulated(555, ds)}
	tiers := []TierConfig{
		{Experts: crowd.Crowd{ce[0]}, Budget: 30},
		{Experts: crowd.Crowd{ce[1]}, Budget: 30},
	}
	resT, err := RunTiers(context.Background(), ds, base, tiers)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(ds)
	cfg.Budget = 60
	cfg.Source = NewSimulated(555, ds)
	resM, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resT.Quality <= resT.InitQuality {
		t.Errorf("tiers did not improve quality: %v -> %v", resT.InitQuality, resT.Quality)
	}
	// The equivalence is in expected information, not realized runs:
	// answer draws and selection paths differ, so allow sampling noise.
	if math.Abs(resT.Accuracy-resM.Accuracy) > 0.15 {
		t.Errorf("tiered %v vs merged %v accuracy diverge", resT.Accuracy, resM.Accuracy)
	}
	// Rounds renumber continuously.
	for i, r := range resT.Rounds {
		if r.Round != i+1 {
			t.Errorf("round %d numbered %d", i, r.Round)
		}
	}
}

func TestRunTiersValidation(t *testing.T) {
	ds := smallDataset(t, 16)
	base := Config{K: 1, Source: NewSimulated(1, ds)}
	ctx := context.Background()
	if _, err := RunTiers(ctx, ds, base, nil); err == nil {
		t.Error("no tiers accepted")
	}
	if _, err := RunTiers(ctx, ds, base, []TierConfig{{}}); err == nil {
		t.Error("empty tier accepted")
	}
	if _, err := RunTiers(ctx, ds, Config{K: 0, Source: base.Source}, []TierConfig{{Experts: crowd.Crowd{{ID: "e", Accuracy: 0.95}}, Budget: 5}}); err == nil {
		t.Error("K=0 accepted")
	}
	resumed := base
	resumed.From = &Checkpoint{}
	if _, err := RunTiers(ctx, ds, resumed, []TierConfig{{Experts: crowd.Crowd{{ID: "e", Accuracy: 0.95}}, Budget: 5}}); err == nil {
		t.Error("a checkpoint to resume from accepted")
	}
}

func TestSplitTiers(t *testing.T) {
	c := crowd.Crowd{
		{ID: "a", Accuracy: 0.98}, {ID: "b", Accuracy: 0.93},
		{ID: "c", Accuracy: 0.91}, {ID: "d", Accuracy: 0.7},
	}
	tiers, cp, err := SplitTiers(c, 0.9, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 2 || len(cp) != 1 {
		t.Fatalf("tiers=%d cp=%d", len(tiers), len(cp))
	}
	if tiers[0].Budget != 50 || tiers[1].Budget != 50 {
		t.Errorf("budgets %v/%v", tiers[0].Budget, tiers[1].Budget)
	}
	total := len(tiers[0].Experts) + len(tiers[1].Experts)
	if total != 3 {
		t.Errorf("experts distributed: %d", total)
	}
	if _, _, err := SplitTiers(c, 0.999, 2, 10); err == nil {
		t.Error("no experts above theta accepted")
	}
	if _, _, err := SplitTiers(c, 0.9, 0, 10); err == nil {
		t.Error("zero tiers accepted")
	}
}

func TestOracleExpertDrivesAccuracyToOne(t *testing.T) {
	// With an oracle-only expert tier and enough budget, every checked
	// fact becomes certain; overall accuracy must climb toward 1.
	cfg := dataset.DefaultSentiConfig()
	cfg.NumTasks = 10
	ds, err := dataset.SentiLike(rngutil.New(17), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Replace experts with one oracle.
	for i, w := range ds.Crowd {
		if w.Accuracy >= ds.Theta {
			ds.Crowd[i].Accuracy = 1.0
		}
	}
	run := Config{K: 1, Budget: 200, Source: NewSimulated(18, ds)}
	res, err := Run(context.Background(), ds, run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.97 {
		t.Errorf("oracle checking reached only %v accuracy", res.Accuracy)
	}
}
