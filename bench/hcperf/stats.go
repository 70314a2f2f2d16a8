package main

// The benchmark's statistics: order statistics, the tail-percentile
// rule, and latency summaries that count failed requests. span.go holds
// the span recorder.

import (
	"fmt"
	"math"
	"sort"
)

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs: the middle value, or the mean of the
// two middle values for an even count. It is NaN for no values.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, the median and the third
// quartile of xs, computed as Python's statistics.quantiles(xs, n=4)
// does with its default exclusive method, so the benchmark's own
// spreads match the ones its consumers compute. It is NaN for no values.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := Sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the distance between the quartiles as a share of the
// median: the benchmark's measure of run-to-run noise.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	return (q3 - q1) / q2
}

// TailPercentiles are the fixed percentiles a tail is reported at, so a
// metric keeps its name from run to run.
var TailPercentiles = []float64{99.9, 99, 90, 50}

// MinBeyond is how many samples must lie above a reported percentile.
const MinBeyond = 10

// Tail picks the highest percentile in TailPercentiles that has at
// least MinBeyond of n samples beyond it. ok is false when even the
// median has fewer (n < 2·MinBeyond).
func Tail(n int) (pct float64, ok bool) {
	for _, p := range TailPercentiles {
		if n-rank(p, n) >= MinBeyond {
			return p, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples, ceil(p·n/100), computed in integer tenths of a percent so
// that 99.9 % of 10000 is exactly 9990.
func rank(p float64, n int) int {
	tenths := int(math.Round(p * 10))
	r := (tenths*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// Latency accumulates request latencies in seconds. Failed requests
// count as attempts that miss every latency bound: they take part in
// the percentiles as +Inf.
type Latency struct {
	ok     []float64
	failed int
}

// Add records a request that succeeded after sec seconds.
func (l *Latency) Add(sec float64) { l.ok = append(l.ok, sec) }

// Fail records a request that failed.
func (l *Latency) Fail() { l.failed++ }

// Merge appends every sample of o.
func (l *Latency) Merge(o *Latency) {
	l.ok = append(l.ok, o.ok...)
	l.failed += o.failed
}

// Attempts is the number of requests recorded, failed ones included.
func (l *Latency) Attempts() int { return len(l.ok) + l.failed }

// Succeeded returns the successful requests' latencies.
func (l *Latency) Succeeded() []float64 { return l.ok }

// Percentile returns the nearest-rank p-th percentile over every
// attempt, in seconds; +Inf when it falls among the failures, NaN with
// no attempts.
func (l *Latency) Percentile(p float64) float64 {
	n := l.Attempts()
	if n == 0 {
		return math.NaN()
	}
	r := rank(p, n)
	if r > len(l.ok) {
		return math.Inf(1)
	}
	return Sorted(l.ok)[r-1]
}

// Summary describes the latency as "p50 X ms, p99 Y ms (n=N, failed=F)",
// the tail being the highest percentile Tail allows.
func (l *Latency) Summary() string {
	n := l.Attempts()
	s := fmt.Sprintf("p50 %.4g ms", l.Percentile(50)*1e3)
	if p, ok := Tail(n); ok && p > 50 {
		s += fmt.Sprintf(", p%g %.4g ms", p, l.Percentile(p)*1e3)
	}
	return s + fmt.Sprintf(" (n=%d, failed=%d)", n, l.failed)
}
