package pipeline

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"hcrowd/internal/belief"
)

func TestCheckpointResumeEquivalence(t *testing.T) {
	// Running 40 budget straight must equal running 20, checkpointing,
	// and resuming for the rest — with the same answer stream seeds the
	// selections differ only through answer-draw order, so compare the
	// budget accounting and that both improve comparably.
	ds := smallDataset(t, 80)
	full := baseConfig(ds)
	full.Budget = 40
	resFull, err := Run(context.Background(), ds, full)
	if err != nil {
		t.Fatal(err)
	}

	half := baseConfig(ds)
	half.Budget = 20
	resHalf, err := Run(context.Background(), ds, half)
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpoint(resHalf)

	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	resume := baseConfig(ds)
	resume.Budget = 40 // total job budget
	resume.From = restored
	resResumed, err := Run(context.Background(), ds, resume)
	if err != nil {
		t.Fatal(err)
	}
	if resResumed.BudgetSpent != 40 {
		t.Errorf("resumed cumulative spend = %v, want 40", resResumed.BudgetSpent)
	}
	if len(resResumed.Rounds) == 0 {
		t.Fatal("resume ran no rounds")
	}
	if first := resResumed.Rounds[0].BudgetSpent; first <= 20 {
		t.Errorf("first resumed round cumulative spend = %v, want > 20", first)
	}
	// Both full and resumed runs end with materially improved quality.
	if resResumed.Quality <= resHalf.Quality {
		t.Errorf("resume did not improve on checkpoint: %v -> %v", resHalf.Quality, resResumed.Quality)
	}
	if math.Abs(resResumed.Quality-resFull.Quality) > 0.35*math.Abs(resFull.Quality) {
		t.Errorf("resumed %v far from straight-through %v", resResumed.Quality, resFull.Quality)
	}
}

func TestCheckpointRoundTripExact(t *testing.T) {
	ds := smallDataset(t, 81)
	cfg := baseConfig(ds)
	cfg.Budget = 10
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpoint(res)
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.BudgetSpent != ck.BudgetSpent {
		t.Errorf("spend changed: %v vs %v", back.BudgetSpent, ck.BudgetSpent)
	}
	for i := range ck.Beliefs {
		a, b := ck.Beliefs[i].Probs(), back.Beliefs[i].Probs()
		for o := range a {
			if math.Abs(a[o]-b[o]) > 1e-12 {
				t.Fatalf("task %d belief changed at %d", i, o)
			}
		}
	}
}

func TestCheckpointIsolatedFromResult(t *testing.T) {
	ds := smallDataset(t, 82)
	cfg := baseConfig(ds)
	cfg.Budget = 6
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpoint(res)
	before := ck.Beliefs[0].Probs()
	// Mutate the result's belief; the checkpoint must not move.
	ce, _ := ds.Split()
	src := NewSimulated(5, ds)
	fam, err := src.Answers(ce, []int{ds.Tasks[0][0]})
	if err != nil {
		t.Fatal(err)
	}
	local, err := relabelFamily(fam, []int{ds.Tasks[0][0]}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Beliefs[0].Update(local); err != nil {
		t.Fatal(err)
	}
	after := ck.Beliefs[0].Probs()
	for o := range before {
		if before[o] != after[o] {
			t.Fatal("checkpoint aliases result beliefs")
		}
	}
}

func TestReadCheckpointErrors(t *testing.T) {
	cases := []string{
		``,
		`not json`,
		`{"beliefs": [], "budget_spent": 3}`,
		`{"beliefs": [{"joint": [0.5, 0.5]}], "budget_spent": -1}`,
		`{"beliefs": [{"joint": [0.5, 0.4, 0.1]}], "budget_spent": 0}`, // not 2^m
		`{"unknown": true}`,
	}
	for _, in := range cases {
		if _, err := ReadCheckpoint(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

// TestReadCheckpointNonFinite pins the NaN regression: `spend < 0` is
// false for NaN, so a plain sign check let a NaN (or ±Inf) spend
// through, and every later budget subtraction — resumeSetup's clamp,
// accumulate's cumulative sums — stayed NaN for the rest of the job.
// Non-finite belief probabilities are rejected too (by the belief
// decoder itself; the case here keeps that covered from this layer).
func TestReadCheckpointNonFinite(t *testing.T) {
	cases := []string{
		`{"beliefs": [{"joint": [0.5, 0.5]}], "budget_spent": "NaN"}`,
		`{"beliefs": [{"joint": [NaN, 0.5]}], "budget_spent": 1}`,
		`{"beliefs": [{"joint": [0.5, 0.5]}], "budget_spent": NaN}`,
		`{"beliefs": [{"joint": [0.5, 0.5]}], "budget_spent": Infinity}`,
	}
	for _, in := range cases {
		if _, err := ReadCheckpoint(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	// Bare JSON cannot spell NaN, but a hand-built (or corrupted)
	// Checkpoint value can carry one; the decoder must reject it on the
	// write->read round trip a journal replay performs.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := &Checkpoint{
			Version:     CheckpointVersion,
			Beliefs:     []*belief.Dist{mustDist(t, []float64{0.5, 0.5})},
			BudgetSpent: bad,
		}
		var buf bytes.Buffer
		// json.Marshal refuses non-finite floats outright, which is fine:
		// either the write fails loudly or the read must.
		if err := c.Write(&buf); err != nil {
			continue
		}
		if _, err := ReadCheckpoint(&buf); err == nil {
			t.Errorf("accepted checkpoint with spend %v", bad)
		}
	}
}

// mustDist builds a belief distribution from an explicit joint.
func mustDist(t *testing.T, joint []float64) *belief.Dist {
	t.Helper()
	d, err := belief.FromJoint(joint)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestResumeValidation(t *testing.T) {
	ds := smallDataset(t, 83)
	cfg := baseConfig(ds)
	cfg.Budget = 6
	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpoint(res)
	ctx := context.Background()
	// Mismatched dataset.
	other := smallDataset(t, 84)
	otherCfg := baseConfig(other)
	otherCfg.From = &Checkpoint{Beliefs: ck.Beliefs[:len(ck.Beliefs)-1], BudgetSpent: ck.BudgetSpent}
	if _, err := Run(ctx, other, otherCfg); err == nil {
		t.Error("task-count mismatch accepted")
	}
	// Exhausted budget resumes to a no-op.
	done := baseConfig(ds)
	done.Budget = ck.BudgetSpent // nothing left
	done.From = ck
	resDone, err := Run(ctx, ds, done)
	if err != nil {
		t.Fatal(err)
	}
	if len(resDone.Rounds) != 0 {
		t.Errorf("exhausted resume ran %d rounds", len(resDone.Rounds))
	}
	if resDone.BudgetSpent != ck.BudgetSpent {
		t.Errorf("exhausted resume spend %v", resDone.BudgetSpent)
	}
	// Missing source.
	noSrc := Config{K: 1, Budget: 20, From: ck}
	if _, err := Run(ctx, ds, noSrc); err == nil {
		t.Error("missing source accepted")
	}
}
