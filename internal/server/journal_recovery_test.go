package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/dataset"
	"hcrowd/internal/journal"
	"hcrowd/internal/pipeline"
)

// driveFlipN answers rounds with the flip policy until n answer sets
// have been delivered (or the session finishes), then returns — the
// "crash point" driver: it leaves the session mid-round whenever n does
// not align with a panel boundary.
func driveFlipN(s *Session, ds *dataset.Dataset, n int) (int, error) {
	answered := 0
	deadline := time.After(20 * time.Second)
	for answered < n {
		select {
		case <-s.finished:
			return answered, nil
		case <-deadline:
			return answered, fmt.Errorf("session stalled after %d answers", answered)
		default:
		}
		progressed := false
		for _, id := range s.Experts() {
			round, facts, ok := s.Queries(id)
			if !ok {
				continue
			}
			if err := s.Answer(round, id, flipAnswers(ds, id, facts)); err != nil {
				return answered, err
			}
			answered++
			progressed = true
			if answered >= n {
				return answered, nil
			}
		}
		if !progressed {
			time.Sleep(time.Millisecond)
		}
	}
	return answered, nil
}

// checkpointBytes serializes a checkpoint for byte comparison.
func checkpointBytes(t *testing.T, ck *pipeline.Checkpoint) []byte {
	t.Helper()
	if ck == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recoverRoundTrip is the kill-and-recover scenario shared by both
// engine flavors: run the job uninterrupted as the reference, run the
// same job journaled and kill it after crashAt accepted answers (no
// drain, no checkpoint file — only the journal survives), recover in a
// fresh manager, finish the job, and demand byte-identical labels and a
// byte-identical final checkpoint.
func recoverRoundTrip(t *testing.T, costAware bool, crashAt int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	ds := sizedDataset(t, 8, 57)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	sc := SessionConfig{K: 1, Budget: 14, Seed: 5}
	if costAware {
		sc.CostAware = true
		sc.CostModel = "accuracy"
	}

	// Reference: the identical job, uninterrupted and unjournaled.
	agg, err := aggregate.ByName("EBCC", sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	couple, err := ds.EstimateCoupling()
	if err != nil {
		t.Fatal(err)
	}
	cost, err := CostModelByName(sc.CostModel)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := pipeline.Config{K: sc.K, Budget: sc.Budget, Init: agg, PriorCoupling: couple, Cost: cost}
	ref, err := NewSession(ctx, ds, refCfg, SessionOptions{CostAware: costAware})
	if err != nil {
		t.Fatal(err)
	}
	if err := driveFlip(ref, ds); err != nil {
		t.Fatalf("reference: %v", err)
	}
	refRes, err := ref.Wait(ctx)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	refCk := checkpointBytes(t, ref.Checkpoint())
	ref.Close()

	// Journaled run, killed after crashAt answers. CompactEvery 3
	// exercises recovery both from a compacted prefix and from a replay
	// suffix. Close without Drain is the in-process stand-in for SIGKILL:
	// nothing is flushed beyond what each acknowledgement already fsynced.
	dir := t.TempDir()
	m1 := NewManager(ManagerOptions{JournalDir: dir, CompactEvery: 3})
	id, s1, err := m1.CreateFromRequest(CreateSessionRequest{
		Name: "job", Dataset: dsBuf.Bytes(), Config: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driveFlipN(s1, ds, crashAt); err != nil {
		t.Fatalf("pre-crash drive: %v", err)
	}
	s1.Close()

	// Restart: a fresh manager over the same journal dir.
	m2 := NewManager(ManagerOptions{JournalDir: dir, CompactEvery: 3})
	ids, err := m2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("recovered %v, want [%s]", ids, id)
	}
	s2, ok := m2.Get(id)
	if !ok {
		t.Fatal("recovered session not registered")
	}
	if err := driveFlip(s2, ds); err != nil {
		t.Fatalf("post-recovery drive: %v", err)
	}
	res, err := s2.Wait(ctx)
	if err != nil {
		t.Fatalf("recovered run: %v", err)
	}

	gotLabels, _ := json.Marshal(res.Labels)
	wantLabels, _ := json.Marshal(refRes.Labels)
	if !bytes.Equal(gotLabels, wantLabels) {
		t.Errorf("recovered labels diverge from uninterrupted run\n got %s\nwant %s", gotLabels, wantLabels)
	}
	if res.BudgetSpent != refRes.BudgetSpent {
		t.Errorf("recovered spend %v, uninterrupted %v", res.BudgetSpent, refRes.BudgetSpent)
	}
	if res.Quality != refRes.Quality {
		t.Errorf("recovered quality %v, uninterrupted %v", res.Quality, refRes.Quality)
	}
	if gotCk := checkpointBytes(t, s2.Checkpoint()); !bytes.Equal(gotCk, refCk) {
		t.Errorf("recovered final checkpoint diverges from uninterrupted run\n got %s\nwant %s", gotCk, refCk)
	}
	// The watcher classifies the terminal state asynchronously after the
	// engine returns; give it a moment.
	stateDeadline := time.After(5 * time.Second)
	for {
		st, _ := m2.Info(id)
		if st.State == StateDone {
			break
		}
		select {
		case <-stateDeadline:
			t.Errorf("recovered session ended %s, want done", st.State)
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestRecoverUniformDeterministicGivenSeed proves the tentpole claim for
// the uniform loop: kill the service mid-round (here: past a round
// boundary and into the next panel), recover from the journal alone,
// and the finished job is byte-identical — labels and final checkpoint —
// to a run that was never interrupted. Runs in the -count=2 determinism
// suite.
func TestRecoverUniformDeterministicGivenSeed(t *testing.T) {
	// crashAt 7 lands mid-panel for every SentiLike expert-set size > 1,
	// so the journal ends in an open round with partial answers.
	recoverRoundTrip(t, false, 7)
}

// TestRecoverCostAwareDeterministicGivenSeed is the same proof for the
// cost-aware loop (accuracy-priced answers, per-round greedy panels).
func TestRecoverCostAwareDeterministicGivenSeed(t *testing.T) {
	recoverRoundTrip(t, true, 7)
}

// TestRecoverDoneSessionDeterministicGivenSeed pins the restart of a
// finished session: its journal ends at the final checkpoint, recovery
// rebuilds it, the engine immediately concludes, and the labels match
// the original run. A completed job surviving restarts is what lets
// clients fetch labels after a crash that happened post-completion.
func TestRecoverDoneSessionDeterministicGivenSeed(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ds := sizedDataset(t, 6, 58)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m1 := NewManager(ManagerOptions{JournalDir: dir})
	id, s1, err := m1.CreateFromRequest(CreateSessionRequest{
		Name: "done-job", Dataset: dsBuf.Bytes(), Config: SessionConfig{K: 1, Budget: 10, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := driveFlip(s1, ds); err != nil {
		t.Fatal(err)
	}
	res1, err := s1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(ManagerOptions{JournalDir: dir})
	ids, err := m2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("recovered %v, want [%s]", ids, id)
	}
	s2, _ := m2.Get(id)
	if err := driveFlip(s2, ds); err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Wait(ctx)
	if err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	got, _ := json.Marshal(res2.Labels)
	want, _ := json.Marshal(res1.Labels)
	if !bytes.Equal(got, want) {
		t.Errorf("labels after restart diverge\n got %s\nwant %s", got, want)
	}
}

// testCreatedPayload builds a valid journal creation record for a tiny
// job, returning the payload and the dataset it embeds.
func testCreatedPayload(t *testing.T, name string) ([]byte, *dataset.Dataset) {
	t.Helper()
	ds := sizedDataset(t, 4, 59)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	req := CreateSessionRequest{
		Name:    name,
		Dataset: dsBuf.Bytes(),
		Config:  SessionConfig{K: 1, Budget: 6, Seed: 2},
	}
	payload, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return payload, ds
}

// writeJournalRecords hand-builds a journal file from records.
func writeJournalRecords(t *testing.T, path string, recs []journal.Record) {
	t.Helper()
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverUnknownRecordTypeFailsLoudly pins the version-skew
// contract: a journal containing a record type this build does not know
// (a newer format, a corrupted stream) must fail recovery with an error
// naming the file — never skip the record and run the session on a
// partial history.
func TestRecoverUnknownRecordTypeFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	created, _ := testCreatedPayload(t, "skewed")
	path := filepath.Join(dir, "skewed.journal")
	writeJournalRecords(t, path, []journal.Record{
		{Type: recCreated, Payload: created},
		{Type: 99, Payload: []byte(`{}`)},
	})
	m := NewManager(ManagerOptions{JournalDir: dir})
	_, err := m.Recover()
	if err == nil {
		t.Fatal("recovery accepted a journal with an unknown record type")
	}
	if !strings.Contains(err.Error(), "unknown journal record type 99") {
		t.Errorf("error %q does not name the unknown type", err)
	}
	if !strings.Contains(err.Error(), "skewed.journal") {
		t.Errorf("error %q does not name the journal file", err)
	}
}

// TestRecoverV0CheckpointColdResume pins backward compatibility: a
// journaled checkpoint in the version-0 format (beliefs + spend only,
// no warm sections) recovers cold — the session rebuilds, resumes from
// those beliefs, and runs to completion.
func TestRecoverV0CheckpointColdResume(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	created, ds := testCreatedPayload(t, "v0job")

	// Produce a genuine checkpoint for this dataset, then strip it down
	// to the v0 field set.
	agg, err := aggregate.ByName("EBCC", 2)
	if err != nil {
		t.Fatal(err)
	}
	couple, err := ds.EstimateCoupling()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(ctx, ds, pipeline.Config{K: 1, Budget: 3, Init: agg, PriorCoupling: couple}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := driveFlip(ref, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	full := checkpointBytes(t, ref.Checkpoint())
	ref.Close()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(full, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "version")
	delete(doc, "selection_cache")
	delete(doc, "stop_votes")
	v0, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	ckPayload, err := json.Marshal(checkpointRec{NextRound: 3, Checkpoint: v0})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	writeJournalRecords(t, filepath.Join(dir, "v0job.journal"), []journal.Record{
		{Type: recCreated, Payload: created},
		{Type: recCheckpoint, Payload: ckPayload},
	})
	m := NewManager(ManagerOptions{JournalDir: dir})
	ids, err := m.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(ids) != 1 || ids[0] != "v0job" {
		t.Fatalf("recovered %v, want [v0job]", ids)
	}
	s, _ := m.Get("v0job")
	if err := driveFlip(s, ds); err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(ctx)
	if err != nil {
		t.Fatalf("v0-resumed run: %v", err)
	}
	if len(res.Labels) != ds.NumFacts() {
		t.Errorf("v0-resumed run produced %d labels for %d facts", len(res.Labels), ds.NumFacts())
	}
	if res.BudgetSpent <= 3 {
		t.Errorf("v0-resumed run spent %v, want > the checkpointed 3", res.BudgetSpent)
	}
}

// TestCancelRetiresJournal pins the deletion semantics: an explicit
// DELETE discards the job, so its journal must not resurrect the
// session at the next restart — while a plain kill (Close) keeps it.
func TestCancelRetiresJournal(t *testing.T) {
	ds := sizedDataset(t, 5, 60)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m := NewManager(ManagerOptions{JournalDir: dir})
	id, s, err := m.CreateFromRequest(CreateSessionRequest{
		Name: "doomed", Dataset: dsBuf.Bytes(), Config: SessionConfig{K: 1, Budget: 50, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, id+".journal")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal not created: %v", err)
	}
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	<-s.finished
	deadline := time.After(5 * time.Second)
	for {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("cancelled session's journal was not retired")
		case <-time.After(5 * time.Millisecond):
		}
	}
	m2 := NewManager(ManagerOptions{JournalDir: dir})
	ids, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("cancelled session resurrected: %v", ids)
	}
}

// TestRecoverEmptyJournalDiscarded pins the never-acknowledged case: a
// journal holding no records (the create crashed before its first
// fsync returned) promised nothing and is silently discarded.
func TestRecoverEmptyJournalDiscarded(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Create(filepath.Join(dir, "ghost.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m := NewManager(ManagerOptions{JournalDir: dir})
	ids, err := m.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(ids) != 0 {
		t.Errorf("recovered %v from an empty journal", ids)
	}
	if _, err := os.Stat(filepath.Join(dir, "ghost.journal")); !os.IsNotExist(err) {
		t.Error("empty journal not removed")
	}
}
