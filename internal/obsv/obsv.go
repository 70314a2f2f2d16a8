// Package obsv is the service's observability substrate: counters,
// gauges and fixed-bucket histograms, optionally fanned out into labeled
// families, collected in a Registry that snapshots to expvar-style JSON.
//
// It is stdlib-only and deliberately small. Instruments are lock-cheap —
// every Observe/Add/Inc is one or two atomic operations, no mutex on the
// hot path — so they can sit inside the pipeline's checking loop and the
// HTTP handlers without perturbing either. Families (CounterVec,
// HistogramVec) pay one short mutexed map lookup to resolve a label set
// to its instrument; callers on hot paths should resolve once and keep
// the handle.
//
// Instruments are purely observational: nothing in this package feeds
// back into the algorithms, so a run with metrics attached is
// byte-identical to one without (the pipeline's determinism suite pins
// this down).
package obsv

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64 (float so budget spend,
// not just event counts, can accumulate). Safe for concurrent use.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add accumulates v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 that can go up and down. Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add accumulates a (possibly negative) delta.
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat accumulates a float64 into an atomic bit store via CAS.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into a fixed ascending bucket layout
// (upper bounds, an implicit +Inf overflow bucket) and tracks their sum.
// The layout is fixed at construction so Observe is a binary search plus
// two atomic adds. Safe for concurrent use.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds;
// nil bounds use DefSecondsBuckets (a latency-in-seconds layout).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefSecondsBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obsv: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64{}, bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// DefSecondsBuckets is the default layout for durations in seconds, from
// half a millisecond to ten seconds.
var DefSecondsBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bucket is one cumulative histogram bucket in a snapshot: the count of
// observations <= Le. The +Inf overflow is not listed; it is the
// snapshot's total count.
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is a histogram's point-in-time state.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]Bucket, len(h.bounds))}
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		s.Buckets[i] = Bucket{Le: b, Count: cum}
	}
	s.Count = h.count.Load()
	s.Sum = h.Sum()
	return s
}

// labelKey joins label values into a family map key; the same joined form
// appears as the key in JSON snapshots.
func labelKey(values []string) string { return strings.Join(values, ",") }

// Fold merges src, one registry's snapshot, into dst under a leading
// label: a plain instrument becomes a family keyed by value, and a
// family's keys gain value as their first element, so several
// registries' snapshots share one document. value must not contain a
// comma, and src's names must not collide with dst's own instruments.
func Fold(dst map[string]MetricSnapshot, label, value string, src map[string]MetricSnapshot) {
	key := func(k string) string { return labelKey([]string{value, k}) }
	for name, ms := range src {
		out, ok := dst[name]
		if !ok {
			out = MetricSnapshot{Type: ms.Type, Help: ms.Help, Labels: append([]string{label}, ms.Labels...)}
		}
		if ms.Type == "histogram" {
			if out.Histograms == nil {
				out.Histograms = make(map[string]HistogramSnapshot)
			}
			if ms.Histogram != nil {
				out.Histograms[value] = *ms.Histogram
			}
			for k, h := range ms.Histograms {
				out.Histograms[key(k)] = h
			}
		} else {
			if out.Values == nil {
				out.Values = make(map[string]float64)
			}
			if ms.Value != nil {
				out.Values[value] = *ms.Value
			}
			for k, v := range ms.Values {
				out.Values[key(k)] = v
			}
		}
		dst[name] = out
	}
}

// checkLabels panics on a label-arity mismatch (a programming error).
func checkLabels(declared, values []string) {
	if len(values) != len(declared) {
		panic(fmt.Sprintf("obsv: %d label values for labels %v", len(values), declared))
	}
}

// CounterVec is a family of counters keyed by a fixed label set (e.g.
// route and status code). With resolves a label-value tuple to its
// counter, creating it on first use.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	m      map[string]*Counter
}

// With returns the counter for the given label values (one per declared
// label), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	checkLabels(v.labels, values)
	k := labelKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.m[k]
	if !ok {
		c = &Counter{}
		v.m[k] = c
	}
	return c
}

// Remove drops the family member for the given label values, so bounded
// registries (e.g. per-session families after eviction) do not grow
// forever. Removing an absent member is a no-op; a later With recreates
// the member from zero.
func (v *CounterVec) Remove(values ...string) {
	checkLabels(v.labels, values)
	k := labelKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.m, k)
}

func (v *CounterVec) snapshot() map[string]float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]float64, len(v.m))
	for k, c := range v.m {
		out[k] = c.Value()
	}
	return out
}

// GaugeVec is a family of gauges keyed by a fixed label set (e.g. one
// gauge per labeling session).
type GaugeVec struct {
	labels []string
	mu     sync.Mutex
	m      map[string]*Gauge
}

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	checkLabels(v.labels, values)
	k := labelKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.m[k]
	if !ok {
		g = &Gauge{}
		v.m[k] = g
	}
	return g
}

// Remove drops the family member for the given label values; see
// CounterVec.Remove.
func (v *GaugeVec) Remove(values ...string) {
	checkLabels(v.labels, values)
	k := labelKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.m, k)
}

func (v *GaugeVec) snapshot() map[string]float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]float64, len(v.m))
	for k, g := range v.m {
		out[k] = g.Value()
	}
	return out
}

// HistogramVec is a family of histograms sharing one bucket layout.
type HistogramVec struct {
	labels []string
	bounds []float64
	mu     sync.Mutex
	m      map[string]*Histogram
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	checkLabels(v.labels, values)
	k := labelKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.m[k]
	if !ok {
		h = NewHistogram(v.bounds)
		v.m[k] = h
	}
	return h
}

// Remove drops the family member for the given label values; see
// CounterVec.Remove.
func (v *HistogramVec) Remove(values ...string) {
	checkLabels(v.labels, values)
	k := labelKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.m, k)
}

func (v *HistogramVec) snapshot() map[string]HistogramSnapshot {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(v.m))
	for k, h := range v.m {
		out[k] = h.snapshot()
	}
	return out
}

// MetricSnapshot is one instrument's state in a registry snapshot. Value
// is set for plain counters/gauges, Values for labeled families,
// Histogram/Histograms for the histogram forms.
type MetricSnapshot struct {
	Type       string                       `json:"type"`
	Help       string                       `json:"help,omitempty"`
	Labels     []string                     `json:"labels,omitempty"`
	Value      *float64                     `json:"value,omitempty"`
	Values     map[string]float64           `json:"values,omitempty"`
	Histogram  *HistogramSnapshot           `json:"histogram,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// registered pairs an instrument with its metadata.
type registered struct {
	help   string
	labels []string
	inst   any
}

// Registry names instruments and snapshots them as one JSON document.
// Registration is not hot-path; do it once at service construction.
type Registry struct {
	mu    sync.Mutex
	names []string
	m     map[string]registered
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]registered)}
}

// register adds an instrument; duplicate names are a programming error.
func (r *Registry) register(name, help string, labels []string, inst any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic("obsv: duplicate metric name " + name)
	}
	r.names = append(r.names, name)
	r.m[name] = registered{help: help, labels: labels, inst: inst}
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, nil, c)
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, nil, g)
	return g
}

// Histogram registers and returns a new histogram; nil bounds use
// DefSecondsBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(name, help, nil, h)
	return h
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, m: make(map[string]*Counter)}
	r.register(name, help, labels, v)
	return v
}

// GaugeVec registers and returns a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{labels: labels, m: make(map[string]*Gauge)}
	r.register(name, help, labels, v)
	return v
}

// HistogramVec registers and returns a labeled histogram family; nil
// bounds use DefSecondsBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{labels: labels, bounds: bounds, m: make(map[string]*Histogram)}
	r.register(name, help, labels, v)
	return v
}

// Snapshot captures every registered instrument's current state.
func (r *Registry) Snapshot() map[string]MetricSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]MetricSnapshot, len(r.names))
	for _, name := range r.names {
		reg := r.m[name]
		ms := MetricSnapshot{Help: reg.help, Labels: reg.labels}
		switch inst := reg.inst.(type) {
		case *Counter:
			ms.Type = "counter"
			v := inst.Value()
			ms.Value = &v
		case *Gauge:
			ms.Type = "gauge"
			v := inst.Value()
			ms.Value = &v
		case *Histogram:
			ms.Type = "histogram"
			h := inst.snapshot()
			ms.Histogram = &h
		case *CounterVec:
			ms.Type = "counter"
			ms.Values = inst.snapshot()
		case *GaugeVec:
			ms.Type = "gauge"
			ms.Values = inst.snapshot()
		case *HistogramVec:
			ms.Type = "histogram"
			ms.Histograms = inst.snapshot()
		}
		out[name] = ms
	}
	return out
}

// WriteJSON writes the snapshot as one indented JSON object, keys sorted
// (encoding/json sorts map keys), expvar-style.
func (r *Registry) WriteJSON(w interface{ Write([]byte) (int, error) }) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Handler serves the registry snapshot as application/json — mount it as
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}
