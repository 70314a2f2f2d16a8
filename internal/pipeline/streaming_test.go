package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/rngutil"
)

// streamFragments generates a deterministic admission schedule against
// the base dataset: count fragments of two tasks each, drawn from one
// seeded stream so the whole schedule is a pure function of the seed.
func streamFragments(t *testing.T, ds *dataset.Dataset, seed int64, count int) []*dataset.Fragment {
	t.Helper()
	rng := rngutil.New(seed)
	cfg := dataset.DefaultSentiConfig()
	frags := make([]*dataset.Fragment, count)
	for i := range frags {
		fr, err := dataset.SentiFragment(rng, ds, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		frags[i] = fr
	}
	return frags
}

// streamTrace extends the closed-loop trace with the streaming-only
// result fields, so byte-equal traces also pin admission accounting.
func streamTrace(res *Result) string {
	return fmt.Sprintf("%s | admitted=%d overspent=%v", trace(res), res.TasksAdmitted, res.Overspent)
}

// TestStreamingDeterministicGivenSeed is the streaming half of the
// reproducibility suite: the event-driven scheduler folds admission
// batches into a live run at round boundaries, and two runs built from
// identical seeds and the identical admission schedule must still
// produce byte-identical traces — same picks, labels, spend, and
// admission accounting — for both loop flavors.
func TestStreamingDeterministicGivenSeed(t *testing.T) {
	variants := []struct {
		name string
		run  func(t *testing.T) string
	}{
		{"uniform", func(t *testing.T) string {
			ds := smallDataset(t, 11)
			cfg := fig2StyleConfig(t, ds, 50)
			cfg.Budget = 25
			cfg.BudgetWindow = 12
			frags := streamFragments(t, ds, 123, 3)
			cfg.Admit = &ScheduleSource{Batches: [][]*dataset.Fragment{
				nil, {frags[0]}, nil, {frags[1], frags[2]},
			}}
			res, err := Run(context.Background(), ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return streamTrace(res)
		}},
		{"cost-aware", func(t *testing.T) string {
			ds := smallDataset(t, 11)
			cfg := fig2StyleConfig(t, ds, 50)
			cfg.Budget = 20
			cfg.BudgetWindow = 10
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
			frags := streamFragments(t, ds, 123, 3)
			cfg.Admit = &ScheduleSource{Batches: [][]*dataset.Fragment{
				nil, {frags[0]}, nil, {frags[1], frags[2]},
			}}
			res, err := RunCostAware(context.Background(), ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return streamTrace(res)
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			first := v.run(t)
			second := v.run(t)
			if first != second {
				t.Errorf("identical seeds diverged:\n run 1: %.200s…\n run 2: %.200s…", first, second)
			}
		})
	}
}

// TestStreamingAdmissionExtendsRun pins the scheduler's growth contract:
// every scheduled fragment is admitted, the final labels cover the grown
// fact space, the rolling window funds checking past the fixed budget,
// and the per-round metrics attribute the admissions.
func TestStreamingAdmissionExtendsRun(t *testing.T) {
	ds := smallDataset(t, 12)
	baseTasks := len(ds.Tasks)
	baseFacts := ds.NumFacts()
	cfg := baseConfig(ds)
	cfg.Budget = 20
	cfg.BudgetWindow = 15
	frags := streamFragments(t, ds, 77, 3)
	wantTasks, wantFacts := 0, 0
	for _, fr := range frags {
		wantTasks += len(fr.Tasks)
		wantFacts += fr.NumFacts()
	}
	cfg.Admit = &ScheduleSource{Batches: [][]*dataset.Fragment{
		{frags[0]}, nil, nil, {frags[1]}, nil, {frags[2]},
	}}
	rec := &MetricsRecorder{}
	cfg.Metrics = rec
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksAdmitted != wantTasks {
		t.Errorf("TasksAdmitted = %d, want %d", res.TasksAdmitted, wantTasks)
	}
	if len(ds.Tasks) != baseTasks+wantTasks {
		t.Errorf("dataset grew to %d tasks, want %d", len(ds.Tasks), baseTasks+wantTasks)
	}
	if len(res.Labels) != baseFacts+wantFacts {
		t.Errorf("labels cover %d facts, want %d", len(res.Labels), baseFacts+wantFacts)
	}
	if len(res.Beliefs) != baseTasks+wantTasks {
		t.Errorf("beliefs cover %d tasks, want %d", len(res.Beliefs), baseTasks+wantTasks)
	}
	// Three fragments refill three windows on top of the fixed budget;
	// the run must spend past the fixed budget alone.
	if res.BudgetSpent <= cfg.Budget {
		t.Errorf("spent %v never consumed a rolling window beyond the fixed budget %v",
			res.BudgetSpent, cfg.Budget)
	}
	var recAdmitted int
	for _, m := range rec.Rounds() {
		recAdmitted += m.TasksAdmitted
	}
	// Metrics attribute admissions to the round that followed them; a
	// trailing admission with no further round is counted in the result
	// only, so the records can cover at most the result total.
	if recAdmitted > res.TasksAdmitted {
		t.Errorf("metrics attribute %d admitted tasks, result has %d", recAdmitted, res.TasksAdmitted)
	}
}

// overSource wraps a Source and appends one extra answer set from a
// phantom worker to every family, so each round is charged for more
// answers than the plan requested — the deliberate overspend trigger.
type overSource struct {
	inner AnswerSource
}

func (o overSource) Answers(experts crowd.Crowd, facts []int) (crowd.AnswerFamily, error) {
	fam, err := o.inner.Answers(experts, facts)
	if err != nil || len(fam) == 0 {
		return fam, err
	}
	first := fam[0]
	extra := crowd.AnswerSet{
		Worker: crowd.Worker{ID: "over-delivery", Accuracy: 0.9},
		Facts:  append([]int{}, first.Facts...),
		Values: append([]bool{}, first.Values...),
	}
	return append(fam, extra), nil
}

// TestOverspendClampFixedBudget is the satellite-2 regression for the
// fixed-budget path: a source delivering more answers than requested
// pushes the round's charge past the remaining budget. The engine must
// floor the balance at zero, record the excess in Result.Overspent and
// the round metrics, and keep the checkpoints consistent with the spend
// — before the clamp, `budget -= spent` went negative silently.
func TestOverspendClampFixedBudget(t *testing.T) {
	ds := smallDataset(t, 13)
	ce, _ := ds.Split()
	perPick := float64(len(ce))
	cfg := baseConfig(ds)
	cfg.Source = overSource{inner: cfg.Source}
	cfg.K = 1
	cfg.Budget = perPick // exactly one pick fundable
	rec := &MetricsRecorder{}
	cfg.Metrics = rec
	var cks []*Checkpoint
	cfg.Journal = func(_ int, ck *Checkpoint) error { cks = append(cks, ck); return nil }
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("ran %d rounds, want exactly 1 (budget funds one pick)", len(res.Rounds))
	}
	if math.Abs(res.Overspent-1) > 1e-9 {
		t.Errorf("Overspent = %v, want 1 (one phantom answer at unit cost)", res.Overspent)
	}
	if math.Abs(res.BudgetSpent-(perPick+1)) > 1e-9 {
		t.Errorf("BudgetSpent = %v, want %v", res.BudgetSpent, perPick+1)
	}
	rounds := rec.Rounds()
	if len(rounds) != 1 || math.Abs(rounds[0].Overspent-1) > 1e-9 {
		t.Errorf("round metrics overspend = %+v, want one round with Overspent 1", rounds)
	}
	if rounds[0].AnswersReceived != rounds[0].AnswersRequested+1 {
		t.Errorf("received %d answers for %d requested, want exactly one extra",
			rounds[0].AnswersReceived, rounds[0].AnswersRequested)
	}
	// The checkpoint carries the true (over)spend, and round-trips.
	if len(cks) != 1 {
		t.Fatalf("got %d checkpoints, want 1", len(cks))
	}
	if math.Abs(cks[0].BudgetSpent-res.BudgetSpent) > 1e-9 {
		t.Errorf("checkpoint BudgetSpent = %v, result %v", cks[0].BudgetSpent, res.BudgetSpent)
	}
	var buf bytes.Buffer
	if err := cks[0].Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatalf("overspent checkpoint does not round-trip: %v", err)
	}
	if math.Abs(back.BudgetSpent-cks[0].BudgetSpent) > 1e-9 {
		t.Errorf("round-tripped BudgetSpent = %v, want %v", back.BudgetSpent, cks[0].BudgetSpent)
	}
}

// TestOverspendClampRollingWindow is the satellite-2 regression for the
// streaming path: after an overspent round, the next admission's window
// refill must fund a full window. Without the floor, the negative
// balance silently ate part of the refill and the run stalled.
func TestOverspendClampRollingWindow(t *testing.T) {
	ds := smallDataset(t, 13)
	ce, _ := ds.Split()
	perPick := float64(len(ce))
	cfg := baseConfig(ds)
	cfg.Source = overSource{inner: cfg.Source}
	cfg.K = 1
	cfg.Budget = perPick
	cfg.BudgetWindow = perPick
	frags := streamFragments(t, ds, 88, 1)
	cfg.Admit = &ScheduleSource{Batches: [][]*dataset.Fragment{
		nil, {frags[0]},
	}}
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 overspends the fixed budget by the phantom answer; the
	// admitted fragment refills exactly one more pick's worth, which must
	// fund round 2 in full. A leaked negative balance leaves the refill
	// short of perPick and the run ends after one round.
	if len(res.Rounds) != 2 {
		t.Fatalf("ran %d rounds, want 2 (window refill must fund a full pick)", len(res.Rounds))
	}
	if math.Abs(res.Overspent-2) > 1e-9 {
		t.Errorf("Overspent = %v, want 2 (one phantom answer per round)", res.Overspent)
	}
	if res.TasksAdmitted != len(frags[0].Tasks) {
		t.Errorf("TasksAdmitted = %d, want %d", res.TasksAdmitted, len(frags[0].Tasks))
	}
}

// partialSource wraps a Source and drops the last worker's answer set
// from every family, simulating an expert who timed out mid-round.
type partialSource struct {
	inner AnswerSource
}

func (p partialSource) Answers(experts crowd.Crowd, facts []int) (crowd.AnswerFamily, error) {
	fam, err := p.inner.Answers(experts, facts)
	if err != nil || len(fam) < 2 {
		return fam, err
	}
	return fam[:len(fam)-1], nil
}

// TestPartialRoundAccounting is the satellite-4 regression: a source
// returning fewer answers than requested must show up as
// AnswersReceived < AnswersRequested in the round metrics, with the
// budget charged only for the answers actually received, and the
// checkpoints must stay consistent with the reduced spend.
func TestPartialRoundAccounting(t *testing.T) {
	ds := smallDataset(t, 14)
	cfg := baseConfig(ds)
	cfg.Source = partialSource{inner: cfg.Source}
	cfg.K = 2
	cfg.Budget = 30
	rec := &MetricsRecorder{}
	cfg.Metrics = rec
	var cks []*Checkpoint
	cfg.Journal = func(_ int, ck *Checkpoint) error { cks = append(cks, ck); return nil }
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := rec.Rounds()
	if len(rounds) == 0 {
		t.Fatal("no rounds recorded")
	}
	var cum float64
	for _, m := range rounds {
		if m.AnswersReceived >= m.AnswersRequested {
			t.Errorf("round %d: received %d of %d requested, want strictly fewer",
				m.Round, m.AnswersReceived, m.AnswersRequested)
		}
		// One dropped worker per purchase; K=2 may split across two tasks.
		dropped := m.AnswersRequested - m.AnswersReceived
		if dropped < 1 || dropped > cfg.K {
			t.Errorf("round %d: %d answers dropped, want 1..%d", m.Round, dropped, cfg.K)
		}
		if math.Abs(m.Spent-float64(m.AnswersReceived)) > 1e-9 {
			t.Errorf("round %d: spent %v for %d unit-cost answers", m.Round, m.Spent, m.AnswersReceived)
		}
		cum += m.Spent
		if math.Abs(m.BudgetSpent-cum) > 1e-9 {
			t.Errorf("round %d: cumulative spend %v, want %v", m.Round, m.BudgetSpent, cum)
		}
	}
	if math.Abs(res.BudgetSpent-cum) > 1e-9 {
		t.Errorf("result spend %v disagrees with metrics %v", res.BudgetSpent, cum)
	}
	if res.BudgetSpent > cfg.Budget {
		t.Errorf("partial rounds overspent: %v > %v", res.BudgetSpent, cfg.Budget)
	}
	if len(cks) != len(rounds) {
		t.Fatalf("%d checkpoints for %d rounds", len(cks), len(rounds))
	}
	last := cks[len(cks)-1]
	if math.Abs(last.BudgetSpent-res.BudgetSpent) > 1e-9 {
		t.Errorf("final checkpoint spend %v, result %v", last.BudgetSpent, res.BudgetSpent)
	}
	var buf bytes.Buffer
	if err := last.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(&buf); err != nil {
		t.Fatalf("partial-round checkpoint does not round-trip: %v", err)
	}
}
