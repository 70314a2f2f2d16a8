package pipeline

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// TestJournalHookCommitsEveryRound pins the Config.Journal contract: the
// round hook fires once per completed round, with 1-based round numbers,
// and receives that round's warm checkpoint — its spend is the round's
// cumulative spend, and the last one serializes byte-identically to the
// finished run's checkpoint.
func TestJournalHookCommitsEveryRound(t *testing.T) {
	ds := smallDataset(t, 90)
	cfg := baseConfig(ds)
	cfg.Budget = 30

	var committed []int
	var journalCks []*Checkpoint
	cfg.Journal = func(round int, ck *Checkpoint) error {
		committed = append(committed, round)
		journalCks = append(journalCks, ck)
		return nil
	}

	res, err := Run(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(committed) != len(res.Rounds) {
		t.Fatalf("the round hook fired %d times for %d rounds", len(committed), len(res.Rounds))
	}
	for i, r := range committed {
		if r != i+1 {
			t.Fatalf("commit %d carried round %d, want %d", i, r, i+1)
		}
		if got, want := journalCks[i].BudgetSpent, res.Rounds[i].BudgetSpent; got != want {
			t.Errorf("round %d: checkpoint spend %v, want %v", i+1, got, want)
		}
	}
	var last, final bytes.Buffer
	if err := journalCks[len(journalCks)-1].Write(&last); err != nil {
		t.Fatal(err)
	}
	if err := NewCheckpoint(res).Write(&final); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(last.Bytes(), final.Bytes()) {
		t.Error("the last round's checkpoint differs from the finished run's")
	}
}

// TestJournalHookErrorAbortsRun pins the hard half of the contract: a
// journal that cannot commit stops the engine with its error — the run
// must never advance past a round durable storage did not accept.
func TestJournalHookErrorAbortsRun(t *testing.T) {
	ds := smallDataset(t, 91)
	cfg := baseConfig(ds)
	cfg.Budget = 40

	sentinel := errors.New("disk on fire")
	calls := 0
	cfg.Journal = func(round int, ck *Checkpoint) error {
		calls++
		if calls == 2 {
			return sentinel
		}
		return nil
	}

	res, err := Run(context.Background(), ds, cfg)
	if !errors.Is(err, sentinel) {
		t.Fatalf("run error = %v, want the journal's", err)
	}
	if !strings.Contains(err.Error(), "journal commit round 2") {
		t.Errorf("error %q does not name the failed round", err)
	}
	if calls != 2 {
		t.Errorf("the round hook fired %d times after a round-2 failure, want 2", calls)
	}
	if res != nil {
		t.Errorf("an aborted run returned a result: %+v", res)
	}
}
