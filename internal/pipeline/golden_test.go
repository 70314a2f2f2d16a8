package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
)

// goldenRun is one pinned checking-loop run: a SHA-256 over the result
// trace, every per-round checkpoint the round hook received, and the
// final checkpoint's serialized bytes.
type goldenRun struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`
	SHA256 string `json:"sha256"`
}

// recordRounds attaches a round hook to cfg that serializes every
// per-round checkpoint into buf.
func recordRounds(cfg *Config, buf *bytes.Buffer) {
	cfg.Journal = func(_ int, ck *Checkpoint) error { return ck.Write(buf) }
}

// runDigest hashes a finished run: its trace, the per-round checkpoint
// bytes collected by recordRounds, and its final checkpoint bytes.
func runDigest(t *testing.T, res *Result, rounds *bytes.Buffer) string {
	t.Helper()
	h := sha256.New()
	h.Write([]byte(streamTrace(res)))
	h.Write(rounds.Bytes())
	if err := NewCheckpoint(res).Write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// roundTripCheckpoint serializes a result's checkpoint through JSON, as a
// restarted job would read it back.
func roundTripCheckpoint(t *testing.T, res *Result) *Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := NewCheckpoint(res).Write(&buf); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// goldenStreamingResumed runs a streaming cost-aware job for two rounds,
// round-trips its checkpoint, and resumes it on the grown dataset with
// the rest of the admission schedule. The budget-window refills the
// first stage already granted are folded into the resumed budget, as
// journal recovery does.
func goldenStreamingResumed(t *testing.T) goldenRun {
	ctx := context.Background()
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
	batches := [][]*dataset.Fragment{{frags[0]}, nil, nil, {frags[1], frags[2]}}
	cfg1 := cfg
	cfg1.MaxRounds = 2
	cfg1.Admit = &ScheduleSource{Batches: batches[:2]}
	part1, err := RunCostAware(ctx, ds, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if part1.TasksAdmitted == 0 || len(part1.Rounds) != 2 {
		t.Fatalf("stage 1 admitted %d tasks in %d rounds, want > 0 in 2", part1.TasksAdmitted, len(part1.Rounds))
	}
	cfg2 := cfg
	cfg2.Budget += cfg.BudgetWindow
	cfg2.Admit = &ScheduleSource{Batches: batches[2:]}
	cfg2.From = roundTripCheckpoint(t, part1)
	var rounds bytes.Buffer
	recordRounds(&cfg2, &rounds)
	res, err := RunCostAware(ctx, ds, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{"streaming-cost-aware/resumed", len(res.Rounds), runDigest(t, res, &rounds)}
}

// TestLoopGolden pins the checking loop's output bit for bit across
// commits: both loop flavors, with and without the stopping rule, run
// fresh and resumed from a JSON round-tripped mid-run checkpoint (warm,
// and with the selection cache stripped), plus a resumed streaming run.
// Each digest covers the round trace, every per-round checkpoint and the
// final checkpoint bytes. Restructuring the loop's entry points must
// leave testdata/loop_golden.json alone.
func TestLoopGolden(t *testing.T) {
	ctx := context.Background()
	var got []goldenRun
	for _, fl := range warmFlavors() {
		ds := smallDataset(t, 4)
		cfg := fl.config(t, ds)
		var rounds bytes.Buffer
		recordRounds(&cfg, &rounds)
		full, err := fl.run(ctx, ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, goldenRun{fl.name + "/fresh", len(full.Rounds), runDigest(t, full, &rounds)})
		b1 := full.Rounds[1].BudgetSpent
		for _, mode := range []struct {
			name string
			warm bool
		}{{"warm", true}, {"cold", false}} {
			ds := smallDataset(t, 4)
			cfg := fl.config(t, ds) // the Source's RNG is shared by both stages
			cfg1 := cfg
			cfg1.Budget = b1
			part1, err := fl.run(ctx, ds, cfg1)
			if err != nil {
				t.Fatal(err)
			}
			ck := roundTripCheckpoint(t, part1)
			if !mode.warm {
				ck.Selection = nil
			}
			cfg.From = ck
			var rounds bytes.Buffer
			recordRounds(&cfg, &rounds)
			res, err := fl.run(ctx, ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, goldenRun{fl.name + "/resumed-" + mode.name, len(res.Rounds), runDigest(t, res, &rounds)})
		}
	}
	got = append(got, goldenStreamingResumed(t))
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "loop_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), raw) {
		t.Errorf("loop outputs drifted from testdata/loop_golden.json:\n got %s\nwant %s", raw, bytes.TrimSpace(want))
	}
}
