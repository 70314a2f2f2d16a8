package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hcrowd/internal/journal"
	"hcrowd/internal/pipeline"
)

// TestSessionCheckpointResume restarts a labeling job: the first session
// spends half the budget, its warm checkpoint round-trips through the
// JSON serialization, and a resumed session spends the rest without
// re-asking anything already answered.
func TestSessionCheckpointResume(t *testing.T) {
	ctx := context.Background()
	ds := testDataset(t)
	s1, err := NewSession(ctx, ds, pipeline.Config{K: 1, Budget: 8}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	clientErr := make(chan error, 1)
	go func() { clientErr <- answerAll(s1, ds) }()
	res1, err := s1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-clientErr; err != nil {
		t.Fatal(err)
	}
	ck := s1.Checkpoint()
	if ck == nil {
		t.Fatal("finished session has no checkpoint")
	}
	if ck.BudgetSpent != res1.BudgetSpent {
		t.Fatalf("checkpoint spend %v, result spend %v", ck.BudgetSpent, res1.BudgetSpent)
	}
	if ck.Selection == nil {
		t.Fatal("checkpoint carries no selection cache — resume would run cold")
	}
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	ck2, err := pipeline.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := NewSession(ctx, ds, pipeline.Config{K: 1, Budget: 16, From: ck2}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	go func() { clientErr <- answerAll(s2, ds) }()
	res2, err := s2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-clientErr; err != nil {
		t.Fatal(err)
	}
	if res2.BudgetSpent != 16 {
		t.Errorf("resumed session spent %v total, want 16", res2.BudgetSpent)
	}
	if res2.Quality < res1.Quality {
		t.Errorf("quality regressed across resume: %v -> %v", res1.Quality, res2.Quality)
	}
}

// TestHTTPCheckpointEndpoint: 204 before the first round completes, a
// loadable checkpoint afterwards.
func TestHTTPCheckpointEndpoint(t *testing.T) {
	ctx := context.Background()
	ds := testDataset(t)
	s, err := NewSession(ctx, ds, pipeline.Config{K: 1, Budget: 4}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(sessionRoutes(s, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("/checkpoint before any round = %d, want 204", resp.StatusCode)
	}

	clientErr := make(chan error, 1)
	go func() { clientErr <- answerAll(s, ds) }()
	if _, err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-clientErr; err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/checkpoint after completion = %d", resp.StatusCode)
	}
	ck, err := pipeline.ReadCheckpoint(resp.Body)
	if err != nil {
		t.Fatalf("served checkpoint does not load: %v", err)
	}
	if ck.Version != pipeline.CheckpointVersion || len(ck.Beliefs) != len(ds.Tasks) {
		t.Errorf("served checkpoint malformed: version %d, %d beliefs", ck.Version, len(ck.Beliefs))
	}
}

// TestCreateRejectsFlavorMismatch: a create payload whose checkpoint was
// written by the other loop flavor than its cost_aware field selects is
// a 400 naming both flavors, and nothing is journaled for it.
func TestCreateRejectsFlavorMismatch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := t.TempDir()
	m := NewManager(ManagerOptions{JournalDir: dir})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	mc := NewManagerClient(srv.URL)

	ds := sizedDataset(t, 6, 71)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	for _, wroteCost := range []bool{false, true} {
		run := pipeline.Run
		if wroteCost {
			run = pipeline.RunCostAware
		}
		res, err := run(ctx, ds, pipeline.Config{K: 1, Budget: 4, Source: pipeline.NewSimulated(3, ds)})
		if err != nil {
			t.Fatal(err)
		}
		var ck bytes.Buffer
		if err := pipeline.NewCheckpoint(res).Write(&ck); err != nil {
			t.Fatal(err)
		}
		_, err = mc.Create(ctx, CreateSessionRequest{
			Name: "mismatch", Dataset: dsBuf.Bytes(),
			Config: SessionConfig{Budget: 8, Checkpoint: ck.Bytes(), CostAware: !wroteCost},
		})
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Fatalf("cost-aware checkpoint %v: err = %v, want HTTP 400", wroteCost, err)
		}
		if !strings.Contains(se.Error(), "uniform") || !strings.Contains(se.Error(), "cost-aware") {
			t.Errorf("error %q does not name both flavors", se.Error())
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("a rejected create left %d journal entries behind", len(entries))
	}
}

// breakJournalAt is a metrics sink that closes a session's journal when
// round n's record arrives. The engine records a round's metrics before
// it calls the round hook, so round n's commit is the first journal
// write to fail.
type breakJournalAt struct {
	n        int
	s        atomic.Pointer[Session]
	closeErr error
}

func (b *breakJournalAt) RecordRound(m pipeline.RoundMetrics) {
	if m.Round == b.n {
		b.closeErr = b.s.Load().journal.close()
	}
}

// TestJournalCommitFailureStopsRound: when the journal cannot commit a
// round, the run aborts, GET /checkpoint still serves the round before,
// and the caller's round hook never sees the uncommitted round.
func TestJournalCommitFailureStopsRound(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds := sizedDataset(t, 6, 71)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	ce, _ := ds.Split()
	roundCost := float64(len(ce))
	req := CreateSessionRequest{
		Name: "broken", Dataset: dsBuf.Bytes(),
		Config: SessionConfig{K: 1, Budget: 4 * roundCost, Seed: 2},
	}
	ds, cfg, opts, err := buildFromRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	brk := &breakJournalAt{n: 2}
	cfg.Metrics = brk
	var hooked []int
	var hookCk *pipeline.Checkpoint
	cfg.Journal = func(round int, ck *pipeline.Checkpoint) error {
		hooked = append(hooked, round)
		hookCk = ck
		return nil
	}
	opts.journalReq = &req
	m := NewManager(ManagerOptions{JournalDir: t.TempDir()})
	_, s, err := m.Create(req.Name, ds, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	brk.s.Store(s) // before any answer, so before round 2 can end

	// An answer may race the aborted run, so the driver's own error is
	// not checked; the run's error is.
	driven := make(chan error, 1)
	go func() { driven <- driveFlip(s, ds) }()
	_, err = s.Wait(ctx)
	<-driven
	if err == nil || !strings.Contains(err.Error(), "journal commit round 2") {
		t.Fatalf("run error = %v, want the round-2 journal commit failure", err)
	}
	if brk.closeErr != nil {
		t.Fatal(brk.closeErr)
	}
	if !reflect.DeepEqual(hooked, []int{1}) {
		t.Errorf("caller's hook saw rounds %v, want [1]", hooked)
	}
	ck := s.Checkpoint()
	if ck == nil || ck != hookCk || ck.BudgetSpent != roundCost {
		t.Errorf("GET /checkpoint does not serve round 1's checkpoint (spend %v)", roundCost)
	}
}

// TestRecoverKeepsFlavorMismatchedCreate: a journal whose create payload
// pairs a checkpoint with the other loop flavor (one a server accepted
// before creates were checked) still recovers, and so does every journal
// after it; the recovered session's run then ends with the mismatch
// error.
func TestRecoverKeepsFlavorMismatchedCreate(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds := sizedDataset(t, 6, 71)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(ctx, ds, pipeline.Config{K: 1, Budget: 4, Source: pipeline.NewSimulated(3, ds)})
	if err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := pipeline.NewCheckpoint(res).Write(&ck); err != nil {
		t.Fatal(err)
	}
	mismatched, err := json.Marshal(CreateSessionRequest{
		Name: "a-mismatch", Dataset: dsBuf.Bytes(),
		Config: SessionConfig{K: 1, Budget: 8, Checkpoint: ck.Bytes(), CostAware: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := testCreatedPayload(t, "b-plain")
	dir := t.TempDir()
	writeJournalRecords(t, filepath.Join(dir, "a-mismatch.journal"), []journal.Record{{Type: recCreated, Payload: mismatched}})
	writeJournalRecords(t, filepath.Join(dir, "b-plain.journal"), []journal.Record{{Type: recCreated, Payload: plain}})

	m := NewManager(ManagerOptions{JournalDir: dir})
	ids, err := m.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if want := []string{"a-mismatch", "b-plain"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("recovered %v, want %v", ids, want)
	}
	plainSession, _ := m.Get("b-plain")
	defer plainSession.Close()
	s, _ := m.Get("a-mismatch")
	_, err = s.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "uniform") || !strings.Contains(err.Error(), "cost-aware") {
		t.Errorf("mismatched session's run error = %v, want one naming both flavors", err)
	}
}
