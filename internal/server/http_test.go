package server

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hcrowd/internal/obsv"
	"hcrowd/internal/pipeline"
)

// brokenWriter is a ResponseWriter whose body writes always fail — a
// client that hung up mid-response.
type brokenWriter struct {
	header http.Header
	code   int
}

func (w *brokenWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}
func (w *brokenWriter) WriteHeader(code int)      { w.code = code }
func (w *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestWriteJSONBrokenWriter pins the satellite fix: an encode failure is
// counted and logged instead of silently discarded.
func TestWriteJSONBrokenWriter(t *testing.T) {
	logBuf := &syncBuffer{}
	rt := newRouter(NewMetrics().http, log.New(logBuf, "", 0))
	rt.writeJSON(&brokenWriter{}, http.StatusOK, map[string]string{"k": "v"})
	if got := rt.ins.writeErrors.Value(); got != 1 {
		t.Errorf("write errors = %v, want 1", got)
	}
	if !strings.Contains(logBuf.String(), "write response") {
		t.Errorf("failure not logged: %q", logBuf.String())
	}
	// An unencodable value fails the same way.
	rt.writeJSON(httptest.NewRecorder(), http.StatusOK, map[string]any{"bad": func() {}})
	if got := rt.ins.writeErrors.Value(); got != 2 {
		t.Errorf("write errors = %v, want 2", got)
	}
}

// TestMiddlewarePanicRecovery checks that a panicking handler is turned
// into a JSON 500, counted, logged, and does not kill the server.
func TestMiddlewarePanicRecovery(t *testing.T) {
	logBuf := &syncBuffer{}
	rt := newRouter(NewMetrics().http, log.New(logBuf, "", 0))
	rt.handle("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	rt.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Errorf("500 body = %q", rec.Body.String())
	}
	if got := rt.ins.panics.Value(); got != 1 {
		t.Errorf("panics = %v, want 1", got)
	}
	if got := rt.ins.requests.With("GET /boom", "500").Value(); got != 1 {
		t.Errorf("request counter = %v, want 1", got)
	}
	if got := rt.ins.inflight.Value(); got != 0 {
		t.Errorf("inflight after panic = %v, want 0", got)
	}
	if !strings.Contains(logBuf.String(), "kaboom") {
		t.Errorf("panic not logged: %q", logBuf.String())
	}
}

// TestMethodNotAllowed pins the hardening satellite: a wrong-method
// request on a known path gets an instrumented 405 with an Allow
// header — not the stock ServeMux rejection that would bypass the
// request counters — and the rejection is tallied in
// http_method_rejected_total.
func TestMethodNotAllowed(t *testing.T) {
	s := newTestSession(t, 4)
	srv := httptest.NewServer(sessionRoutes(s, nil))
	defer srv.Close()

	cases := []struct {
		method, path string
		wantAllow    string
	}{
		{http.MethodPost, "/status", "GET"},
		{http.MethodDelete, "/queries", "GET"},
		{http.MethodGet, "/answers", "POST"},
		{http.MethodPut, "/labels", "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s %s: non-JSON 405 body: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.wantAllow {
			t.Errorf("%s %s Allow = %q, want %q", tc.method, tc.path, got, tc.wantAllow)
		}
		if body["error"] == "" {
			t.Errorf("%s %s: empty error body", tc.method, tc.path)
		}
	}

	ins := s.Metrics().http
	if got := ins.methodRejected.Value(); got != float64(len(cases)) {
		t.Errorf("method rejected counter = %v, want %d", got, len(cases))
	}
	// The rejections are visible in the per-route request counter under
	// the bare path (not fanned out per wrong method).
	if got := ins.requests.With("/status", "405").Value(); got != 1 {
		t.Errorf(`requests{"/status","405"} = %v, want 1`, got)
	}
	// A request for a path that exists only under another method must
	// not disturb the real route's counters.
	if got := ins.requests.With("GET /status", "405").Value(); got != 0 {
		t.Errorf(`requests{"GET /status","405"} = %v, want 0`, got)
	}
}

// TestMiddlewareCountsRoutes drives a few requests and checks the
// per-(route, code) counters and latency histograms fill in.
func TestMiddlewareCountsRoutes(t *testing.T) {
	s := newTestSession(t, 4)
	srv := httptest.NewServer(sessionRoutes(s, nil))
	defer srv.Close()
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/queries") // missing worker → 400
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ins := s.Metrics().http
	if got := ins.requests.With("GET /status", "200").Value(); got != 3 {
		t.Errorf("GET /status 200 = %v, want 3", got)
	}
	if got := ins.requests.With("GET /queries", "400").Value(); got != 1 {
		t.Errorf("GET /queries 400 = %v, want 1", got)
	}
	if got := ins.latency.With("GET /status").Count(); got != 3 {
		t.Errorf("latency observations = %v, want 3", got)
	}
}

// TestMetricsEndpointEndToEnd is the acceptance check at the package
// level: drive a session to completion over HTTP, scrape GET /metrics,
// and assert the snapshot carries per-route HTTP stats and per-round
// pipeline/selector counters.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	ds := testDataset(t)
	s, err := NewSession(context.Background(), ds, pipeline.Config{K: 1, Budget: 8}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(sessionRoutes(s, nil))
	defer srv.Close()

	c := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, id := range s.Experts() {
		go func(id string) {
			_ = c.AnswerLoop(ctx, id, func(facts []int) []bool {
				values := make([]bool, len(facts))
				for i, f := range facts {
					values[i] = ds.Truth[f]
				}
				return values
			}, time.Millisecond)
		}(id)
	}
	if _, err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	var snap map[string]obsv.MetricSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) float64 {
		t.Helper()
		ms, ok := snap[name]
		if !ok || ms.Value == nil {
			t.Fatalf("metric %q missing from snapshot", name)
		}
		return *ms.Value
	}
	if counter("pipeline_rounds_total") <= 0 {
		t.Error("no pipeline rounds recorded")
	}
	if counter("selector_evals_total") <= 0 {
		t.Error("no selector evals recorded")
	}
	if counter("pipeline_answers_received_total") != counter("pipeline_answers_requested_total") {
		t.Error("full-panel run received != requested")
	}
	if counter("pipeline_budget_spent") != 8 {
		t.Errorf("budget spent gauge = %v, want 8", counter("pipeline_budget_spent"))
	}
	httpStats, ok := snap["http_requests_total"]
	if !ok || len(httpStats.Values) == 0 {
		t.Fatalf("http_requests_total missing or empty: %+v", httpStats)
	}
	foundAnswers := false
	for k := range httpStats.Values {
		if strings.HasPrefix(k, "POST /answers") {
			foundAnswers = true
		}
	}
	if !foundAnswers {
		t.Errorf("no POST /answers stats in %v", httpStats.Values)
	}
	if rs, ok := snap["pipeline_round_seconds"]; !ok || rs.Histogram == nil || rs.Histogram.Count <= 0 {
		t.Errorf("pipeline_round_seconds missing observations: %+v", snap["pipeline_round_seconds"])
	}
}

// stallingWriter blocks on the first body write until released — a client
// draining its response very slowly.
type stallingWriter struct {
	header  http.Header
	entered chan struct{} // closed when Write first blocks
	release chan struct{}
	once    sync.Once
}

func (w *stallingWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}
func (w *stallingWriter) WriteHeader(int) {}
func (w *stallingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return len(p), nil
}

// TestLabelsSlowClientDoesNotHoldSessionLock pins the lock-discipline fix
// in the labels handler: the result snapshot is taken under s.mu but the
// response is encoded after the unlock, so a client that stalls mid-body
// cannot wedge the session lock (and with it every other handler and the
// engine).
func TestLabelsSlowClientDoesNotHoldSessionLock(t *testing.T) {
	ds := testDataset(t)
	s, err := NewSession(context.Background(), ds, pipeline.Config{K: 1, Budget: 4}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := answerAll(s, ds); err != nil {
		t.Fatal(err)
	}

	w := &stallingWriter{
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		sessionRoutes(s, nil).ServeHTTP(w, httptest.NewRequest("GET", "/labels", nil))
	}()

	select {
	case <-w.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("labels handler never reached the body write")
	}
	// The handler is parked inside the client write. The session lock
	// must be free — before the fix this TryLock failed.
	if !s.mu.TryLock() {
		t.Error("s.mu held across the response write to a stalled client")
	} else {
		s.mu.Unlock()
	}
	close(w.release)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("labels handler did not finish after release")
	}
}
