package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hcrowd/internal/dataset"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
)

// spaces streams n bytes of JSON whitespace without holding them in
// memory.
type spaces struct{ n int64 }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > s.n {
		p = p[:s.n]
	}
	for i := range p {
		p[i] = ' '
	}
	s.n -= int64(len(p))
	return len(p), nil
}

// wantTooLarge serves h a POST to path whose body is one byte past limit
// and requires 413. With declared the request states that length up
// front, and the body must be refused before it is read; without it the
// length is unknown (a chunked upload), and the body is read up to the
// cap.
func wantTooLarge(t *testing.T, h http.Handler, path string, limit int64, declared bool) {
	t.Helper()
	body := &spaces{limit + 1}
	req := httptest.NewRequest(http.MethodPost, path, body)
	req.ContentLength = -1
	if declared {
		req.ContentLength = limit + 1
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST %s with %d bytes: status %d, want 413", path, limit+1, rec.Code)
	}
	if declared && body.n != limit+1 {
		t.Errorf("POST %s: %d bytes of a body with an oversized declared length were read", path, limit+1-body.n)
	}
}

// bodyLimitHandler is a manager holding one plain session, "s".
func bodyLimitHandler(t *testing.T) http.Handler {
	t.Helper()
	m := NewManager(ManagerOptions{})
	_, s, err := m.Create("s", testDataset(t), pipeline.Config{K: 1, Budget: 4}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return m.Handler()
}

// TestCreateBodyLimit: an oversized create payload is refused with 413.
func TestCreateBodyLimit(t *testing.T) {
	wantTooLarge(t, bodyLimitHandler(t), "/v1/sessions", maxSessionBytes, true)
}

// TestClusterCreateBodyLimit: the cluster's create router, which buffers
// the payload to peek at the session name, refuses an oversized one too.
func TestClusterCreateBodyLimit(t *testing.T) {
	_, clus, _ := startClusterPair(t, false)
	wantTooLarge(t, clus[0].Handler(), "/v1/sessions", maxSessionBytes, true)
}

// TestAnswersBodyLimit: an oversized answer payload is refused with 413,
// whether its length is declared or not.
func TestAnswersBodyLimit(t *testing.T) {
	h := bodyLimitHandler(t)
	wantTooLarge(t, h, "/v1/sessions/s/answers", maxAnswerBytes, true)
	wantTooLarge(t, h, "/v1/sessions/s/answers", maxAnswerBytes, false)
}

// TestTasksBodyLimit: an oversized admission payload is refused with 413,
// whether its length is declared or not.
func TestTasksBodyLimit(t *testing.T) {
	h := bodyLimitHandler(t)
	wantTooLarge(t, h, "/v1/sessions/s/tasks", maxAdmitBytes, true)
	wantTooLarge(t, h, "/v1/sessions/s/tasks", maxAdmitBytes, false)
}

// TestCreateAcceptsLargeCheckpoint: a create may carry any checkpoint the
// server serves. Three 19-fact tasks hold 2^19 beliefs each, so one round
// leaves a checkpoint of more than 32 MiB, and posting that GET
// /checkpoint body back as config.checkpoint resumes the job.
func TestCreateAcceptsLargeCheckpoint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector multiplies this test's several hundred MB of JSON buffers")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	gen := dataset.DefaultSentiConfig()
	gen.NumTasks = 3
	gen.FactsPerTask = 19
	ds, err := dataset.SentiLike(rngutil.New(5), gen)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ManagerOptions{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	ce, _ := ds.Split()
	roundCost := float64(len(ce))
	_, a, err := m.Create("a", ds, pipeline.Config{K: 1, Budget: roundCost}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := driveFlip(a, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/sessions/a/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ck, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /checkpoint: status %d, %v", resp.StatusCode, err)
	}
	if len(ck) <= 32<<20 {
		t.Fatalf("checkpoint is %d bytes, want more than 32 MiB", len(ck))
	}

	// The create payload is spliced by hand so the test holds one copy
	// of the checkpoint, not the several json.Marshal would make.
	var body bytes.Buffer
	body.WriteString(`{"name":"b","dataset":`)
	if err := ds.Write(&body); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&body, `,"config":{"k":1,"budget":%v,"checkpoint":`, 2*roundCost)
	body.Write(ck)
	body.WriteString(`}}`)
	ckLen := len(ck)
	ck = nil
	resp, err = http.Post(srv.URL+"/v1/sessions", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create from a %d-byte checkpoint: status %d: %s", ckLen, resp.StatusCode, msg)
	}
	b, _ := m.Get("b")
	defer b.Close()
	if got, want := b.Checkpoint().BudgetSpent, roundCost; got != want {
		t.Errorf("resumed session starts at spend %v, want %v", got, want)
	}
}
