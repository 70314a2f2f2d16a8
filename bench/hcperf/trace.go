package main

import (
	"context"
	"time"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/pipeline"
)

// rootSpan is the name of the span around one traced op. The spans
// below it are named "layer.call".
const rootSpan = "bench.op"

// coverage is the share of the traced ops' time, in percent, that the
// self times of the layer spans below them account for.
func coverage(spans []Span) float64 {
	self := SelfByName(spans)
	var ops, layers time.Duration
	for _, s := range spans {
		if s.Name == rootSpan {
			ops += s.Duration()
		}
	}
	for name, d := range self {
		if name != rootSpan {
			layers += d
		}
	}
	return pct(layers, ops)
}

// tracedAggregator records a span around every Aggregate call.
type tracedAggregator struct {
	aggregate.Aggregator
	tr     *Tracer
	trace  string
	parent int
}

func (a tracedAggregator) Aggregate(m *dataset.Matrix) (*aggregate.Result, error) {
	id := a.tr.Begin(a.trace, a.parent, "aggregate.init")
	defer a.tr.End(id)
	return a.Aggregator.Aggregate(m)
}

// tracedSource records a span around every answer collection and adds
// its duration to *took. The engine calls its source from one goroutine
// at a time, and *took is read once the run has returned.
type tracedSource struct {
	pipeline.AnswerSource
	tr     *Tracer
	trace  string
	parent int
	took   *time.Duration
}

func (s tracedSource) Answers(experts crowd.Crowd, facts []int) (crowd.AnswerFamily, error) {
	id := s.tr.Begin(s.trace, s.parent, "pipeline.source")
	defer func() { *s.took += s.tr.End(id) }()
	return s.AnswerSource.Answers(experts, facts)
}

// roundSummary folds the traced runs of one checking-loop flavour: the
// engine's per-round records, the time its answer source took, and the
// heap allocations of the runs. The selector counts come from the first
// run alone, whose input depends only on the seed, so they repeat
// exactly however many runs fit in the window.
type roundSummary struct {
	runs, rounds           int
	firstRounds            int
	evals, rescans, reused int64
	allocs                 uint64
	source                 time.Duration
	durations              Latency // of the rounds
	roundTotal             time.Duration
}

// run calls one checking loop with a "pipeline.run" span around it and
// its initializer and answer source wrapped in spans, and folds the run
// into s. A nil cfg.Init is the loop's default, MV.
func (s *roundSummary) run(ctx context.Context, loop func(context.Context, *dataset.Dataset, pipeline.Config) (*pipeline.Result, error),
	ds *dataset.Dataset, cfg pipeline.Config, tr *Tracer, trace string, parent int) (*pipeline.Result, error) {
	span := tr.Begin(trace, parent, "pipeline.run")
	if cfg.Init == nil {
		cfg.Init = aggregate.MV{}
	}
	cfg.Init = tracedAggregator{Aggregator: cfg.Init, tr: tr, trace: trace, parent: span}
	cfg.Source = tracedSource{AnswerSource: cfg.Source, tr: tr, trace: trace, parent: span, took: &s.source}
	rec := &pipeline.MetricsRecorder{}
	cfg.Metrics = rec
	m0 := mallocs()
	res, err := loop(ctx, ds, cfg)
	s.allocs += mallocs() - m0
	tr.End(span)
	if err != nil {
		return nil, err
	}
	for _, m := range rec.Rounds() {
		s.rounds++
		s.durations.Add(m.Duration.Seconds())
		s.roundTotal += m.Duration
		if s.runs == 0 {
			s.firstRounds++
			s.evals += m.Selector.Evals
			s.rescans += m.Selector.Rescans
			s.reused += m.Selector.Reused
		}
	}
	s.runs++
	return res, nil
}

// put reports the flavour's round, source and selection metrics; the
// times are per run.
func (s *roundSummary) put(r *runner, flavour string) {
	p := "pipeline." + flavour
	perRun := func(d time.Duration) float64 { return ms(d) / float64(s.runs) }
	r.put(p+".round_p50_us", s.durations.Percentile(50)*1e6)
	r.put(p+".round_p99_us", s.durations.Percentile(99)*1e6)
	r.put(p+".source_ms", perRun(s.source))
	r.put(p+".round_self_ms", perRun(s.roundTotal-s.source))
	r.put(p+".allocs_per_round", float64(s.allocs)/float64(s.rounds))
	r.put("taskselect."+flavour+".evals_per_round", float64(s.evals)/float64(s.firstRounds))
	r.put("taskselect."+flavour+".cache_hit_ratio", float64(s.reused)/float64(s.reused+s.rescans))
	r.printf("%s rounds: %s over %d runs", p, s.durations.Summary(), s.runs)
}
