package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 1, 10}, 10},
	} {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := Quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	// IQR 8.25-2.75 = 5.5 over median 5.5.
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("Spread = %v, want 1", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 beyond p99.9
		{9999, 99, true},    // 9.999 beyond p99.9: not enough
		{1000, 99, true},    // 10 beyond p99
		{999, 90, true},
		{100, 90, true},
		{99, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := Tail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("Tail(%d) = %v %v, want %v %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestLatencyCountsFailuresAsMissingEveryBound(t *testing.T) {
	var l Latency
	for i := 1; i <= 8; i++ {
		l.Add(float64(i) / 1000)
	}
	l.Fail()
	l.Fail()
	if l.Attempts() != 10 || len(l.Succeeded()) != 8 {
		t.Fatalf("attempts %d succeeded %d, want 10 and 8", l.Attempts(), len(l.Succeeded()))
	}
	// Nearest rank over all ten attempts: the 5th and the 8th success
	// are inside; the 9th attempt is a failure.
	if got := l.Percentile(50); got != 0.005 {
		t.Errorf("p50 = %v, want 0.005", got)
	}
	if got := l.Percentile(80); got != 0.008 {
		t.Errorf("p80 = %v, want 0.008", got)
	}
	if got := l.Percentile(90); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf (a failure)", got)
	}
	var none Latency
	if !math.IsNaN(none.Percentile(50)) {
		t.Error("percentile of no attempts should be NaN")
	}
}

func TestLatencySummaryNamesTailAndCount(t *testing.T) {
	var l Latency
	for i := 1; i <= 1000; i++ {
		l.Add(float64(i) / 1e6)
	}
	s := l.Summary()
	for _, want := range []string{"p50 0.5 ms", "p99 0.99 ms", "n=1000", "failed=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary() = %q, missing %q", s, want)
		}
	}
	var few Latency
	few.Add(0.001)
	if s := few.Summary(); strings.Contains(s, "p99") || !strings.Contains(s, "n=1") {
		t.Errorf("Summary() of one sample = %q, want only p50 and n=1", s)
	}
}

func mkSpan(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := mkSpan(1, 0, "p", 0, 100)
	children := []Span{
		mkSpan(2, 1, "a", 10, 30),
		mkSpan(3, 1, "b", 20, 40),   // overlaps a: union [10,40]
		mkSpan(4, 1, "c", 60, 70),   // disjoint
		mkSpan(5, 1, "d", 90, 120),  // sticks out: only [90,100] counts
		mkSpan(6, 1, "e", 150, 160), // entirely outside
	}
	// Covered: 30 + 10 + 10 = 50.
	if got := SelfTime(parent, children); got != 50 {
		t.Errorf("SelfTime = %v, want 50", got)
	}
	if got := SelfTime(parent, nil); got != 100 {
		t.Errorf("SelfTime without children = %v, want 100", got)
	}
	nested := []Span{mkSpan(7, 1, "x", 10, 20), mkSpan(8, 1, "y", 12, 18)}
	if got := SelfTime(parent, nested); got != 90 {
		t.Errorf("SelfTime with a contained child = %v, want 90", got)
	}
}

func TestSelfByNamePartitionsTheRoot(t *testing.T) {
	spans := []Span{
		mkSpan(1, 0, "root", 0, 100),
		mkSpan(2, 1, "a", 10, 50),
		mkSpan(3, 2, "b", 20, 30),
		mkSpan(4, 1, "b", 60, 65),
	}
	got := SelfByName(spans)
	want := map[string]time.Duration{"root": 55, "a": 30, "b": 15}
	var sum time.Duration
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, got[name], d)
		}
		sum += got[name]
	}
	if sum != spans[0].Duration() {
		t.Errorf("self times sum to %v, want the root's %v", sum, spans[0].Duration())
	}
	total, count := Stats(spans)
	if total["b"] != 15 || count["b"] != 2 {
		t.Errorf("Stats b = %v over %d spans, want 15 over 2", total["b"], count["b"])
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("run-1", 0, "root")
	child := tr.Begin("run-1", root, "child")
	tr.End(child)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Errorf("trace file has %d lines, want one per span", lines)
	}
}

func TestCoverageIsLayerSelfTimeOverOpTime(t *testing.T) {
	spans := []Span{
		mkSpan(1, 0, rootSpan, 0, 100),
		mkSpan(2, 1, "pipeline.run", 10, 60),
		mkSpan(3, 2, "pipeline.source", 20, 30),
		mkSpan(4, 1, "aggregate.DS", 70, 90),
		mkSpan(5, 0, rootSpan, 200, 300),
		mkSpan(6, 5, "aggregate.DS", 200, 300),
	}
	// Layers cover 50 + 20 of the first op and all 100 of the second.
	if got := coverage(spans); got != 85 {
		t.Errorf("coverage = %v, want 85", got)
	}
}

func TestTracedTimeCountsOddPhases(t *testing.T) {
	l := &load{phase: 10}
	for _, c := range []struct{ d, want time.Duration }{
		{5, 0}, {10, 0}, {15, 5}, {20, 10}, {25, 10}, {35, 15}, {40, 20},
	} {
		if got := l.tracedTime(c.d); got != c.want {
			t.Errorf("tracedTime(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}
