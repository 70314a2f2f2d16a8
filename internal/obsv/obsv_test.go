package obsv

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				c.Add(0.5)
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), 8*1000*1.5; got != want {
		t.Fatalf("counter = %v, want %v", got, want)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %v, want 0", got)
	}
	c.Add(-5)
	if got := c.Value(); got != 8*1000*1.5 {
		t.Fatalf("counter moved on negative add: %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Sum != 18 {
		t.Fatalf("sum = %v, want 18", s.Sum)
	}
	// Cumulative: <=1 → {0.5, 1}, <=2 → +{1.5, 2}, <=5 → +{3}; 10 overflows.
	want := []Bucket{{1, 2}, {2, 4}, {5, 5}}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending bounds")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("http_requests_total", "requests", "route", "code")
	v.With("GET /status", "200").Add(3)
	v.With("GET /status", "200").Inc()
	v.With("POST /answers", "409").Inc()
	snap := v.snapshot()
	if snap["GET /status,200"] != 4 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap["POST /answers,409"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label arity mismatch")
		}
	}()
	v.With("only-one")
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rounds_total", "completed rounds")
	g := r.Gauge("inflight", "in-flight requests")
	h := r.Histogram("latency_seconds", "round wall time", []float64{0.1, 1})
	hv := r.HistogramVec("route_latency_seconds", "per route", []float64{0.5}, "route")
	c.Add(2)
	g.Set(7)
	h.Observe(0.05)
	h.Observe(3)
	hv.With("GET /labels").Observe(0.2)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]MetricSnapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if got := decoded["rounds_total"]; got.Type != "counter" || got.Value == nil || *got.Value != 2 {
		t.Fatalf("rounds_total = %+v", got)
	}
	if got := decoded["inflight"]; *got.Value != 7 {
		t.Fatalf("inflight = %+v", got)
	}
	hs := decoded["latency_seconds"].Histogram
	if hs == nil || hs.Count != 2 || hs.Sum != 3.05 {
		t.Fatalf("latency_seconds = %+v", hs)
	}
	if got := decoded["route_latency_seconds"].Histograms["GET /labels"]; got.Count != 1 {
		t.Fatalf("route_latency_seconds = %+v", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	r.Gauge("x", "")
}

func TestHandlerServesJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var decoded map[string]MetricSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if *decoded["hits"].Value != 1 {
		t.Fatalf("hits = %+v", decoded["hits"])
	}
}

func TestGaugeVecAndRemove(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("session_quality", "per-session quality", "session")
	gv.With("s1").Set(3.5)
	gv.With("s2").Set(-1)
	snap := r.Snapshot()["session_quality"]
	if snap.Type != "gauge" || snap.Values["s1"] != 3.5 || snap.Values["s2"] != -1 {
		t.Fatalf("gauge vec snapshot = %+v", snap)
	}
	// Removing a member drops it from the snapshot; a later With starts
	// from zero.
	gv.Remove("s1")
	snap = r.Snapshot()["session_quality"]
	if _, ok := snap.Values["s1"]; ok {
		t.Fatalf("removed member still present: %+v", snap)
	}
	if got := gv.With("s1").Value(); got != 0 {
		t.Fatalf("recreated member = %v, want 0", got)
	}
	gv.Remove("ghost") // absent member: no-op, no panic
}

func TestVecRemove(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("reqs", "", "route")
	cv.With("/a").Inc()
	cv.Remove("/a")
	if vals := r.Snapshot()["reqs"].Values; len(vals) != 0 {
		t.Fatalf("counter member survived Remove: %+v", vals)
	}
	hv := r.HistogramVec("lat", "", nil, "route")
	hv.With("/a").Observe(0.1)
	hv.Remove("/a")
	if hs := r.Snapshot()["lat"].Histograms; len(hs) != 0 {
		t.Fatalf("histogram member survived Remove: %+v", hs)
	}
}

func TestVecRemoveBadArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on label arity mismatch")
		}
	}()
	v := &CounterVec{labels: []string{"a", "b"}, m: map[string]*Counter{}}
	v.Remove("only-one")
}

// TestFold folds two registries' snapshots under a leading label into a
// third's: plain instruments become families keyed by the label value,
// and families gain it as their first key element.
func TestFold(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("own", "").Inc()
	snap := dst.Snapshot()
	for _, id := range []string{"a", "b"} {
		r := NewRegistry()
		r.Counter("hits", "hits seen").Add(2)
		r.Gauge("level", "").Set(-1)
		r.Histogram("lat", "", []float64{1}).Observe(0.5)
		r.CounterVec("reqs", "", "route", "code").With("/x", "200").Inc()
		r.HistogramVec("route_lat", "", []float64{1}, "route").With("/x").Observe(2)
		r.GaugeVec("empty", "", "state")
		Fold(snap, "session", id, r.Snapshot())
	}
	if got := *snap["own"].Value; got != 1 {
		t.Errorf("own = %v, want 1 (untouched)", got)
	}
	hits := snap["hits"]
	if hits.Type != "counter" || hits.Help != "hits seen" || hits.Value != nil ||
		len(hits.Labels) != 1 || hits.Labels[0] != "session" ||
		len(hits.Values) != 2 || hits.Values["a"] != 2 || hits.Values["b"] != 2 {
		t.Errorf("plain counter folded to %+v", hits)
	}
	if level := snap["level"]; level.Type != "gauge" || level.Values["b"] != -1 {
		t.Errorf("plain gauge folded to %+v", level)
	}
	lat := snap["lat"]
	if lat.Type != "histogram" || lat.Histogram != nil || len(lat.Histograms) != 2 ||
		lat.Histograms["a"].Count != 1 || lat.Histograms["a"].Buckets[0].Count != 1 {
		t.Errorf("plain histogram folded to %+v", lat)
	}
	reqs := snap["reqs"]
	if len(reqs.Labels) != 3 || reqs.Labels[0] != "session" || reqs.Labels[2] != "code" ||
		len(reqs.Values) != 2 || reqs.Values["a,/x,200"] != 1 || reqs.Values["b,/x,200"] != 1 {
		t.Errorf("counter family folded to %+v", reqs)
	}
	rl := snap["route_lat"]
	if len(rl.Labels) != 2 || len(rl.Histograms) != 2 ||
		rl.Histograms["b,/x"].Count != 1 || rl.Histograms["b,/x"].Buckets[0].Count != 0 {
		t.Errorf("histogram family folded to %+v", rl)
	}
	if empty, ok := snap["empty"]; !ok || empty.Type != "gauge" || len(empty.Labels) != 2 || len(empty.Values) != 0 {
		t.Errorf("empty family folded to %+v (present %v)", empty, ok)
	}
}
