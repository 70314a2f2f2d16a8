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
	"sort"
	"strings"
	"testing"
	"time"

	"hcrowd/internal/obsv"
	"hcrowd/internal/pipeline"
)

// scrape GETs url and decodes the metrics snapshot it serves.
func scrape(t *testing.T, h http.Handler, url string) map[string]obsv.MetricSnapshot {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body)
	}
	var snap map[string]obsv.MetricSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return snap
}

// TestSessionMetricsSurface pins the per-session scrape: every metric
// name, type and label set that /v1/sessions/{id}/metrics and the
// session's root /metrics serve.
func TestSessionMetricsSurface(t *testing.T) {
	m := NewManager(ManagerOptions{})
	_, s, err := m.Create("pin", testDataset(t), pipeline.Config{K: 1, Budget: 4}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	root, _ := m.SessionHandler("pin")
	want := []string{
		"http_inflight_requests gauge",
		"http_method_rejected_total counter",
		"http_panics_total counter",
		"http_request_seconds histogram route",
		"http_requests_total counter route,code",
		"http_write_errors_total counter",
		"journal_appends_total counter",
		"journal_bytes_total counter",
		"journal_compactions_total counter",
		"journal_errors_total counter",
		"journal_replayed_records_total counter",
		"journal_sync_seconds histogram",
		"journal_syncs_total counter",
		"pipeline_answers_received_total counter",
		"pipeline_answers_requested_total counter",
		"pipeline_budget_spent gauge",
		"pipeline_frozen_facts gauge",
		"pipeline_quality gauge",
		"pipeline_queries_bought_total counter",
		"pipeline_round_seconds histogram",
		"pipeline_rounds_total counter",
		"selector_evals_total counter",
		"selector_rescans_total counter",
		"selector_reused_total counter",
		"session_answers_accepted_total counter",
		"session_answers_rejected_total counter reason",
		"session_fragments_admitted_total counter",
		"session_rounds_completed_total counter",
		"session_rounds_expired_total counter",
		"session_rounds_published_total counter",
	}
	for _, c := range []struct {
		h   http.Handler
		url string
	}{{m.Handler(), "/v1/sessions/pin/metrics"}, {root, "/metrics"}} {
		var got []string
		for name, ms := range scrape(t, c.h, c.url) {
			got = append(got, strings.TrimSpace(name+" "+ms.Type+" "+strings.Join(ms.Labels, ",")))
		}
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s surface:\n%s\nwant:\n%s", c.url, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestMetricsRegistriesDisjoint checks that a session bundle and the
// manager bundle register no common name, so folding every session's
// snapshot into the manager's in GET /v1/metrics never shadows a metric.
func TestMetricsRegistriesDisjoint(t *testing.T) {
	mgr := NewManagerMetrics().reg.Snapshot()
	for name := range NewMetrics().reg.Snapshot() {
		if _, dup := mgr[name]; dup {
			t.Errorf("%s is registered by both bundles", name)
		}
	}
}

// TestManagerMetricsFoldsSessions checks GET /v1/metrics against each
// session's own scrape: with two live journaled sessions it carries each
// one's numbers under its session label, equal to what that session's
// /metrics serves, and a session's numbers leave it with the session
// (Retire, eviction), or never enter it (a failed create).
func TestManagerMetricsFoldsSessions(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m := NewManager(ManagerOptions{JournalDir: t.TempDir(), Retention: 1})
	h := m.Handler()
	srv := httptest.NewServer(h)
	defer srv.Close()
	mc := NewManagerClient(srv.URL)

	ds := sizedDataset(t, 6, 90)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	ce, _ := ds.Split()
	create := func(name string) {
		t.Helper()
		req := CreateSessionRequest{Name: name, Dataset: dsBuf.Bytes(), Config: SessionConfig{Budget: 10 * float64(len(ce))}}
		if _, err := mc.Create(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	ids := []string{"a", "b"}
	for _, id := range ids {
		create(id)
		// Answer round 1 over HTTP, then wait for round 2: by then round
		// 1's records and journal commit are in, and nothing else moves.
		sc := mc.Session(id)
		for _, w := range ce {
			q, ok, err := sc.Queries(ctx, w.ID)
			for err == nil && !ok {
				time.Sleep(time.Millisecond)
				q, ok, err = sc.Queries(ctx, w.ID)
			}
			if err != nil {
				t.Fatal(err)
			}
			values := make([]bool, len(q.Facts))
			for i, f := range q.Facts {
				values[i] = ds.Truth[f]
			}
			if err := sc.Answer(ctx, q.Round, w.ID, values); err != nil {
				t.Fatal(err)
			}
		}
		s, _ := m.Get(id)
		for s.Status().OpenRound < 2 {
			if ctx.Err() != nil {
				t.Fatalf("session %s never opened round 2", id)
			}
			time.Sleep(time.Millisecond)
		}
	}

	all := scrape(t, h, "/v1/metrics")
	for _, id := range ids {
		own := scrape(t, h, "/v1/sessions/"+id+"/metrics")
		for _, name := range []string{"pipeline_rounds_total", "journal_syncs_total"} {
			got, ok := all[name].Values[id]
			if want := *own[name].Value; !ok || got != want || want == 0 {
				t.Errorf("/v1/metrics %s{%s} = %v (present %v), session scrape %v", name, id, got, ok, want)
			}
		}
		got, ok := all["http_request_seconds"].Histograms[id+",POST /answers"]
		want := own["http_request_seconds"].Histograms["POST /answers"]
		if !ok || got.Count != want.Count || got.Sum != want.Sum || int(want.Count) != len(ce) {
			t.Errorf("/v1/metrics http_request_seconds{%s,POST /answers} = %+v (present %v), session scrape %+v", id, got, ok, want)
		}
	}

	absent := func(id, after string) {
		t.Helper()
		for name, ms := range scrape(t, h, "/v1/metrics") {
			for k := range ms.Values {
				if k == id || strings.HasPrefix(k, id+",") {
					t.Errorf("after %s: /v1/metrics %s still holds %q", after, name, k)
				}
			}
			for k := range ms.Histograms {
				if k == id || strings.HasPrefix(k, id+",") {
					t.Errorf("after %s: /v1/metrics %s still holds %q", after, name, k)
				}
			}
		}
	}
	if _, err := m.Handoff(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Retire("a"); err != nil {
		t.Fatal(err)
	}
	absent("a", "Retire")

	// Retention 1: once c finishes after b, b is evicted.
	if err := m.Cancel("b"); err != nil {
		t.Fatal(err)
	}
	create("c")
	for info, _ := m.Info("b"); info.State != StateCancelled; info, _ = m.Info("b") {
		if ctx.Err() != nil {
			t.Fatal("b never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel("c"); err != nil {
		t.Fatal(err)
	}
	for _, ok := m.Get("b"); ok; _, ok = m.Get("b") {
		if ctx.Err() != nil {
			t.Fatal("b never evicted")
		}
		time.Sleep(time.Millisecond)
	}
	absent("b", "eviction")
	if _, ok := scrape(t, h, "/v1/metrics")["pipeline_rounds_total"].Values["c"]; !ok {
		t.Error("/v1/metrics lost the retained session c")
	}

	// A create that journals and then fails (no expert above theta)
	// leaves neither a journal nor numbers behind.
	broken := *ds
	broken.Theta = 0.999
	var brokenBuf bytes.Buffer
	if err := broken.Write(&brokenBuf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.CreateFromRequest(CreateSessionRequest{Name: "bad", Dataset: brokenBuf.Bytes(), Config: SessionConfig{Budget: 4}}); err == nil {
		t.Fatal("create without experts succeeded")
	}
	if _, err := os.Stat(filepath.Join(m.opts.JournalDir, "bad.journal")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed create left its journal: %v", err)
	}
	absent("bad", "a failed create")
}

// TestSessionRequestCountedOnce checks that a request the manager hands
// to a session is instrumented by the session's router alone, under its
// inner route, while an unknown session's 404 is counted by the manager
// under the proxy route.
func TestSessionRequestCountedOnce(t *testing.T) {
	m := NewManager(ManagerOptions{})
	_, s, err := m.Create("one", testDataset(t), pipeline.Config{K: 1, Budget: 4}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := m.Handler()
	get := func(url string, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != want {
			t.Fatalf("GET %s = %d, want %d", url, rec.Code, want)
		}
	}
	get("/v1/sessions/one/status", http.StatusOK)
	if got := s.Metrics().http.requests.With("GET /status", "200").Value(); got != 1 {
		t.Errorf("session GET /status count = %v, want 1", got)
	}
	if got := m.Metrics().reg.Snapshot()["manager_http_requests_total"].Values; len(got) != 0 {
		t.Errorf("manager counted a served session request: %v", got)
	}
	get("/v1/sessions/ghost/status", http.StatusNotFound)
	got := m.Metrics().reg.Snapshot()["manager_http_requests_total"].Values
	if len(got) != 1 || got["/v1/sessions/{id}/{rest...},404"] != 1 {
		t.Errorf("manager request counts after an unknown-session request = %v, want one proxy-route 404", got)
	}
}
