package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hcrowd/internal/pipeline"
)

func TestClientEndToEnd(t *testing.T) {
	ds := testDataset(t)
	s, err := NewSession(context.Background(), ds, pipeline.Config{K: 1, Budget: 16}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(sessionRoutes(s, nil))
	defer srv.Close()

	c := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	experts, err := c.Experts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(experts) == 0 {
		t.Fatal("no experts")
	}

	// One AnswerLoop per expert, answering from ground truth.
	var wg sync.WaitGroup
	errs := make(chan error, len(experts))
	for _, id := range experts {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			errs <- c.AnswerLoop(ctx, id, func(facts []int) []bool {
				values := make([]bool, len(facts))
				for i, f := range facts {
					values[i] = ds.Truth[f]
				}
				return values
			}, time.Millisecond)
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatal("session not done after answer loops returned")
	}
	labels, err := c.Labels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != ds.NumFacts() {
		t.Fatalf("labels = %d, want %d", len(labels), ds.NumFacts())
	}
	// Perfect checking answers: accuracy must be reported high.
	if st.Accuracy == nil || *st.Accuracy < 0.7 {
		t.Errorf("accuracy = %v", st.Accuracy)
	}
}

func TestClientQueriesNoContent(t *testing.T) {
	ds := testDataset(t)
	s, err := NewSession(context.Background(), ds, pipeline.Config{K: 1, Budget: 4}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(sessionRoutes(s, nil))
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()
	if _, ok, err := c.Queries(ctx, "not-an-expert"); err != nil || ok {
		t.Errorf("queries for non-expert: ok=%v err=%v", ok, err)
	}
}

// TestClientLabelsInProgress: /labels answers 409 until the session is
// done, and the client surfaces it as a *StatusError carrying the
// server's error body.
func TestClientLabelsInProgress(t *testing.T) {
	ds := testDataset(t)
	s, err := NewSession(context.Background(), ds, pipeline.Config{K: 1, Budget: 4}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(sessionRoutes(s, nil))
	defer srv.Close()
	_, err = NewClient(srv.URL).Labels(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("labels before done: err = %v, want *StatusError 409", err)
	}
	if !strings.Contains(se.Msg, "in progress") {
		t.Errorf("StatusError.Msg = %q, want the server's error body", se.Msg)
	}
}

// slowServer answers every request with body after delay.
func slowServer(t *testing.T, delay time.Duration, body string) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body)) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestClientTimeoutOption pins the configurable request timeout through
// requests against a 200ms handler: a shorter Timeout fails, a longer
// one succeeds, a negative one leaves the per-call context as the only
// deadline, and an explicit HTTPClient wins over Timeout either way.
func TestClientTimeoutOption(t *testing.T) {
	srv := slowServer(t, 200*time.Millisecond, `{"experts": []}`)
	ctx := context.Background()

	c := NewClient(srv.URL)
	c.Timeout = 50 * time.Millisecond
	if _, err := c.Experts(ctx); err == nil {
		t.Error("50ms client survived a 200ms handler; the timeout option is not applied")
	}
	c.Timeout = 5 * time.Second
	if _, err := c.Experts(ctx); err != nil {
		t.Errorf("5s client failed against a 200ms handler: %v", err)
	}

	if resolveTimeout(0) != defaultClientTimeout || resolveTimeout(-1) != 0 {
		t.Errorf("resolveTimeout(0, -1) = %v, %v; want %v, 0",
			resolveTimeout(0), resolveTimeout(-1), defaultClientTimeout)
	}
	c.Timeout = -1 // negative disables the timeout entirely
	if _, err := c.Experts(ctx); err != nil {
		t.Errorf("no-timeout client failed: %v", err)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := c.Experts(short); err == nil {
		t.Error("no-timeout client ignored the per-call context deadline")
	}

	c.HTTPClient = &http.Client{Timeout: 5 * time.Second}
	c.Timeout = time.Nanosecond
	if _, err := c.Experts(ctx); err != nil {
		t.Errorf("explicit HTTPClient not honored over a 1ns Timeout: %v", err)
	}
	c.HTTPClient = &http.Client{Timeout: 50 * time.Millisecond}
	c.Timeout = 5 * time.Second
	if _, err := c.Experts(ctx); err == nil {
		t.Error("explicit HTTPClient's own 50ms timeout not applied")
	}
}

// TestManagerClientSessionInheritsTransport: a session client minted by
// ManagerClient.Session issues its requests with the manager client's
// HTTPClient and Timeout.
func TestManagerClientSessionInheritsTransport(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/sessions/moved/status":
			http.Redirect(w, r, "/v1/sessions/here/status", http.StatusTemporaryRedirect)
			return
		case "/v1/sessions/slow/status":
			time.Sleep(200 * time.Millisecond)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"done": true}`)) //nolint:errcheck
	}))
	defer srv.Close()
	ctx := context.Background()

	mc := NewManagerClient(srv.URL)
	if st, err := mc.Session("moved").Status(ctx); err != nil || !st.Done {
		t.Fatalf("default client did not follow the redirect: %+v, %v", st, err)
	}
	mc.HTTPClient = noFollow()
	var se *StatusError
	if _, err := mc.Session("moved").Status(ctx); !errors.As(err, &se) || se.Code != http.StatusTemporaryRedirect {
		t.Errorf("Session() dropped the manager's HTTPClient: err = %v, want *StatusError 307", err)
	}

	mc = NewManagerClient(srv.URL)
	mc.Timeout = 50 * time.Millisecond
	if _, err := mc.Session("slow").Status(ctx); err == nil {
		t.Error("Session() dropped the manager's 50ms Timeout")
	}
}

func TestClientErrors(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens there
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := c.Experts(ctx); err == nil {
		t.Error("dead server gave experts")
	}
	if _, err := c.Status(ctx); err == nil {
		t.Error("dead server gave status")
	}
	if err := c.Answer(ctx, 1, "e0", []bool{true}); err == nil {
		t.Error("dead server accepted answers")
	}
	if _, err := c.Labels(ctx); err == nil {
		t.Error("dead server gave labels")
	}
}

// TestClientTimeoutChangeHonored: Timeout is read per request, so a
// shrunk deadline starts failing requests and restoring it heals them.
func TestClientTimeoutChangeHonored(t *testing.T) {
	srv := slowServer(t, 100*time.Millisecond, `{"sessions":[]}`)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	mc := NewManagerClient(srv.URL)
	mc.Timeout = 5 * time.Second
	if _, err := mc.List(ctx); err != nil {
		t.Fatalf("long timeout: %v", err)
	}
	mc.Timeout = 10 * time.Millisecond
	if _, err := mc.List(ctx); err == nil {
		t.Fatal("10ms timeout against a 100ms handler succeeded; shrunk Timeout ignored")
	}
	mc.Timeout = 5 * time.Second
	if _, err := mc.List(ctx); err != nil {
		t.Fatalf("restored timeout: %v", err)
	}
}
