package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

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

	s2, err := NewSession(ctx, ds, pipeline.Config{K: 1, Budget: 16}, SessionOptions{Checkpoint: ck2})
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
