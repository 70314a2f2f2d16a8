package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hcrowd/internal/dataset"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
)

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultSentiConfig()
	cfg.NumTasks = 8
	ds, err := dataset.SentiLike(rngutil.New(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func newTestSession(t *testing.T, budget float64) *Session {
	t.Helper()
	ds := testDataset(t)
	s, err := NewSession(context.Background(), ds, pipeline.Config{K: 1, Budget: budget}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// answerAll drives the session to completion with perfect answers; it
// returns an error instead of failing the test because it runs in a
// separate goroutine.
func answerAll(s *Session, ds *dataset.Dataset) error {
	deadline := time.After(10 * time.Second)
	for {
		select {
		case <-s.finished:
			return nil
		case <-deadline:
			return fmt.Errorf("session did not finish")
		default:
		}
		progressed := false
		for _, id := range s.Experts() {
			round, facts, ok := s.Queries(id)
			if !ok {
				continue
			}
			values := make([]bool, len(facts))
			for i, f := range facts {
				values[i] = ds.Truth[f]
			}
			if err := s.Answer(round, id, values); err != nil {
				return err
			}
			progressed = true
		}
		if !progressed {
			time.Sleep(time.Millisecond)
		}
	}
}

func TestSessionEndToEnd(t *testing.T) {
	ds := testDataset(t)
	s, err := NewSession(context.Background(), ds, pipeline.Config{K: 1, Budget: 20}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clientErr := make(chan error, 1)
	go func() { clientErr <- answerAll(s, ds) }()
	res, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-clientErr; err != nil {
		t.Fatal(err)
	}
	if res.BudgetSpent != 20 {
		t.Errorf("budget spent %v, want 20", res.BudgetSpent)
	}
	if res.Quality <= res.InitQuality {
		t.Errorf("quality did not improve: %v -> %v", res.InitQuality, res.Quality)
	}
	st := s.Status()
	if !st.Done || st.Rounds == 0 || st.Accuracy == nil {
		t.Errorf("status after completion: %+v", st)
	}
}

func TestSessionQueriesLifecycle(t *testing.T) {
	s := newTestSession(t, 4)
	expert := s.Experts()[0]
	// Wait for the first round to be published.
	var round int
	var facts []int
	ok := false
	for i := 0; i < 1000 && !ok; i++ {
		round, facts, ok = s.Queries(expert)
		time.Sleep(time.Millisecond)
	}
	if !ok {
		t.Fatal("no round published")
	}
	if len(facts) != 1 {
		t.Fatalf("facts = %v, want 1 (k=1)", facts)
	}
	// Non-expert and unknown workers see nothing.
	if _, _, ok := s.Queries("p0"); ok {
		t.Error("preliminary worker offered queries")
	}
	if _, _, ok := s.Queries("ghost"); ok {
		t.Error("unknown worker offered queries")
	}
	// Answer, then the same worker must not see the round again.
	if err := s.Answer(round, expert, []bool{true}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Queries(expert); ok {
		t.Error("answered worker still offered the round")
	}
}

func TestSessionAnswerValidation(t *testing.T) {
	s := newTestSession(t, 4)
	expert := s.Experts()[0]
	var round int
	ok := false
	for i := 0; i < 1000 && !ok; i++ {
		round, _, ok = s.Queries(expert)
		time.Sleep(time.Millisecond)
	}
	if !ok {
		t.Fatal("no round published")
	}
	if err := s.Answer(round+5, expert, []bool{true}); err == nil {
		t.Error("wrong round accepted")
	}
	if err := s.Answer(round, "ghost", []bool{true}); err == nil {
		t.Error("unknown worker accepted")
	}
	if err := s.Answer(round, expert, []bool{true, false}); err == nil {
		t.Error("wrong answer arity accepted")
	}
	if err := s.Answer(round, expert, []bool{true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Answer(round, expert, []bool{false}); err == nil {
		t.Error("duplicate answer accepted")
	}
}

func TestSessionCloseUnblocks(t *testing.T) {
	s := newTestSession(t, 100)
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := s.Wait(ctx); err == nil {
		t.Error("cancelled session reported success")
	}
	if err := s.Answer(1, s.Experts()[0], []bool{true}); err == nil {
		t.Error("closed session accepted answers")
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	ds := testDataset(t)
	s, err := NewSession(context.Background(), ds, pipeline.Config{K: 2, Budget: 12}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(sessionRoutes(s, nil))
	defer srv.Close()

	get := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if v != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	var experts struct {
		Experts []string `json:"experts"`
	}
	if code := get("/experts", &experts); code != http.StatusOK {
		t.Fatalf("/experts = %d", code)
	}
	if len(experts.Experts) == 0 {
		t.Fatal("no experts listed")
	}

	// Labels are unavailable while running.
	if code := get("/labels", nil); code != http.StatusConflict {
		t.Errorf("/labels while running = %d, want 409", code)
	}

	// Drive the session over HTTP until done.
	deadline := time.After(10 * time.Second)
	for {
		var st Status
		if code := get("/status", &st); code != http.StatusOK {
			t.Fatalf("/status = %d", code)
		}
		if st.Done {
			break
		}
		select {
		case <-deadline:
			t.Fatal("HTTP session did not finish")
		default:
		}
		for _, id := range experts.Experts {
			var q struct {
				Round int   `json:"round"`
				Facts []int `json:"facts"`
			}
			code := get("/queries?worker="+id, &q)
			if code == http.StatusNoContent {
				continue
			}
			if code != http.StatusOK {
				t.Fatalf("/queries = %d", code)
			}
			values := make([]bool, len(q.Facts))
			for i, f := range q.Facts {
				values[i] = ds.Truth[f]
			}
			body, _ := json.Marshal(map[string]any{
				"round": q.Round, "worker": id, "values": values,
			})
			resp, err := http.Post(srv.URL+"/answers", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("/answers = %d", resp.StatusCode)
			}
		}
	}

	var labels struct {
		Labels []bool `json:"labels"`
	}
	if code := get("/labels", &labels); code != http.StatusOK {
		t.Fatalf("/labels = %d", code)
	}
	if len(labels.Labels) != ds.NumFacts() {
		t.Fatalf("labels = %d, want %d", len(labels.Labels), ds.NumFacts())
	}
}

func TestHTTPErrors(t *testing.T) {
	s := newTestSession(t, 4)
	srv := httptest.NewServer(sessionRoutes(s, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/queries without worker = %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/answers", "application/json", bytes.NewBufferString("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad answers payload = %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/answers", "application/json",
		bytes.NewBufferString(`{"round": 99, "worker": "ghost", "values": [true]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("invalid answer = %d", resp.StatusCode)
	}
}

func TestNewSessionValidation(t *testing.T) {
	ds := testDataset(t)
	broken := *ds
	broken.Theta = 0.999 // no experts
	if _, err := NewSession(context.Background(), &broken, pipeline.Config{K: 1, Budget: 4}, SessionOptions{}); err == nil {
		t.Error("no-expert dataset accepted")
	}
}

func TestSessionExpertsStable(t *testing.T) {
	s := newTestSession(t, 4)
	a := s.Experts()
	b := s.Experts()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("Experts() unstable")
	}
}

func TestRoundTimeoutProceedsWithPartialAnswers(t *testing.T) {
	ds := testDataset(t)
	s, err := NewSession(context.Background(), ds,
		pipeline.Config{K: 1, Budget: 6}, SessionOptions{RoundTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Only the first expert ever answers; the second is absent. The
	// timeout must move every round forward on the single answer.
	active := s.Experts()[0]
	deadline := time.After(15 * time.Second)
	for {
		select {
		case <-s.finished:
			res, err := s.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// Budget charged for answers actually received: one expert,
			// k=1 → one unit per round.
			if res.BudgetSpent != float64(len(res.Rounds)) {
				t.Errorf("spent %v over %d rounds, want 1 per round",
					res.BudgetSpent, len(res.Rounds))
			}
			if res.Quality <= res.InitQuality {
				t.Error("partial rounds did not improve quality")
			}
			return
		case <-deadline:
			t.Fatal("session with absent expert did not finish")
		default:
		}
		if round, facts, ok := s.Queries(active); ok {
			values := make([]bool, len(facts))
			for i, f := range facts {
				values[i] = ds.Truth[f]
			}
			if err := s.Answer(round, active, values); err != nil {
				// The round may have just expired; keep going.
				continue
			}
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRoundTimeoutKeepsEmptyRoundOpen(t *testing.T) {
	ds := testDataset(t)
	s, err := NewSession(context.Background(), ds,
		pipeline.Config{K: 1, Budget: 4}, SessionOptions{RoundTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Nobody answers: after several timeout periods the session must
	// still be running with an open round (not crashed, not done).
	time.Sleep(150 * time.Millisecond)
	st := s.Status()
	if st.Done {
		t.Fatalf("session ended without any answers: %+v", st)
	}
	if st.OpenRound == 0 {
		t.Error("no open round while waiting")
	}
}
