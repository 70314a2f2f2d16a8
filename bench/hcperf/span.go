package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, as seen from the benchmark.
// Start and End are offsets from the tracer's creation.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Trace  string        `json:"trace"`  // the figure, run or session the call served
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. Span IDs start at 1.
// It is safe for concurrent use.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

// NewTracer starts a tracer whose clock starts now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(trace string, parent int, name string) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return id
}

// End closes the span with the given ID and returns its duration.
func (t *Tracer) End(id int) time.Duration {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.Duration()
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as one JSON object per line.
func (t *Tracer) WriteFile(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write trace %s: %w", path, err)
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// SelfTime is a span's duration minus the part of it that the union of
// its children's intervals covers. Children may overlap each other (a
// session's concurrent requests) and may stick out of the parent; only
// the covered part inside the parent is subtracted.
func SelfTime(parent Span, children []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, v := range iv {
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		covered += curHi - curLo
	}
	return parent.Duration() - covered
}

// SelfByName sums SelfTime over spans of the same name.
func SelfByName(spans []Span) map[string]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += SelfTime(s, kids[s.ID])
	}
	return out
}

// Stats sums durations and counts spans of the same name.
func Stats(spans []Span) (total map[string]time.Duration, count map[string]int) {
	total = make(map[string]time.Duration)
	count = make(map[string]int)
	for _, s := range spans {
		total[s.Name] += s.Duration()
		count[s.Name]++
	}
	return total, count
}
