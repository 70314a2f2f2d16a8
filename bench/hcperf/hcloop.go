package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"hcrowd/internal/dataset"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
)

// hcLoopJob runs the checking loop in both flavours on the run's
// datasets: each op is pipeline.Run then pipeline.RunCostAware on one
// dataset, MV-initialized, answered by simulated experts.
type hcLoopJob struct {
	r       *runner
	panel   []*dataset.Dataset
	digests map[int64]string
}

func setupHCLoop(r *runner) (job, error) {
	j := &hcLoopJob{r: r, digests: make(map[int64]string)}
	for i := 0; i < r.sz.hcPanel; i++ {
		cfg := dataset.DefaultSentiConfig()
		cfg.NumTasks = r.sz.hcTasks
		ds, err := dataset.SentiLike(rngutil.New(j.dsSeed(i)), cfg)
		if err != nil {
			return nil, err
		}
		j.panel = append(j.panel, ds)
	}
	return j, nil
}

func (j *hcLoopJob) close() error { return nil }

func (j *hcLoopJob) dsSeed(i int) int64 { return j.r.seed*1000 + int64(i%j.r.sz.hcPanel) }

// loops are the two flavours' entry points, in flavours order.
var loops = []func(context.Context, *dataset.Dataset, pipeline.Config) (*pipeline.Result, error){
	pipeline.Run, pipeline.RunCostAware,
}

// pair runs both flavours on the i-th dataset and returns each run's
// wall time. With a tracer, the pair is one root span and each run goes
// through rounds[flavour].run.
func (j *hcLoopJob) pair(ctx context.Context, i int, tr *Tracer, rounds []*roundSummary) ([]time.Duration, error) {
	ds, seed := j.panel[i%len(j.panel)], j.dsSeed(i)
	trace := fmt.Sprintf("hc-%d-%d", seed, i)
	var root int
	if tr != nil {
		root = tr.Begin(trace, 0, rootSpan)
		defer tr.End(root)
	}
	h := sha256.New()
	took := make([]time.Duration, len(flavours))
	for k, flavour := range flavours {
		cfg := pipeline.Config{
			K:      j.r.sz.hcK,
			Budget: j.r.sz.hcBudget,
			Source: pipeline.NewSimulated(seed+1+int64(k), ds),
		}
		t := time.Now()
		var res *pipeline.Result
		var err error
		if tr != nil {
			res, err = rounds[k].run(ctx, loops[k], ds, cfg, tr, trace, root)
		} else {
			res, err = loops[k](ctx, ds, cfg)
		}
		took[k] = time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("%s run on dataset %d: %w", flavour, seed, err)
		}
		fmt.Fprintf(h, "%s %v %d:", flavour, res.BudgetSpent, len(res.Rounds))
		for _, l := range res.Labels {
			if l {
				h.Write([]byte{'1'})
			} else {
				h.Write([]byte{'0'})
			}
		}
	}
	checkDigest(j.r, "hc-loop", seed, hex.EncodeToString(h.Sum(nil)), j.digests)
	return took, nil
}

func (j *hcLoopJob) measure(ctx context.Context, deadline time.Time) (*opStats, error) {
	st := &opStats{}
	runs := make([]Latency, len(flavours))
	t0 := time.Now()
	err := closedLoop(ctx, deadline, func(i int) error {
		t := time.Now()
		took, err := j.pair(ctx, i, nil, nil)
		if err != nil {
			return err
		}
		st.lat.Add(time.Since(t).Seconds())
		st.ops++
		for k := range flavours {
			runs[k].Add(took[k].Seconds())
		}
		return nil
	})
	st.window = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if st.rssMB, err = peakRSS(); err != nil {
		return nil, err
	}
	j.r.requests(int64(2*st.ops), 0)
	for k, f := range flavours {
		j.r.printf("hc_%s_run_s median %.4g s, IQR/median %.3f (n=%d)", f, runs[k].Percentile(50), Spread(runs[k].Succeeded()), runs[k].Attempts())
	}
	return st, nil
}

// trace alternates an untraced op with a traced one on the same dataset.
func (j *hcLoopJob) trace(ctx context.Context, tr *Tracer, deadline time.Time) error {
	rounds := []*roundSummary{{}, {}}
	runs := make([]Latency, len(flavours))
	var untraced, traced time.Duration
	var ops int
	var allocs uint64
	err := closedLoop(ctx, deadline, func(i int) error {
		t := time.Now()
		took, err := j.pair(ctx, i, nil, nil)
		if err != nil {
			return err
		}
		untraced += time.Since(t)
		for k := range flavours {
			runs[k].Add(took[k].Seconds())
		}
		m0 := mallocs()
		t = time.Now()
		if _, err := j.pair(ctx, i, tr, rounds); err != nil {
			return err
		}
		traced += time.Since(t)
		allocs += mallocs() - m0
		ops++
		return nil
	})
	if err != nil {
		return err
	}
	j.r.requests(int64(4*ops), 0)
	spans := tr.Spans()
	total, _ := Stats(spans)
	var allRounds int
	for k, f := range flavours {
		rounds[k].put(j.r, f)
		j.r.put("pipeline."+f+".run_ms", runs[k].Percentile(50)*1e3)
		allRounds += rounds[k].rounds
	}
	j.r.put("aggregate.init.ms", ms(total["aggregate.init"])/float64(ops))
	j.r.put("pipeline.rounds_per_s", float64(allRounds)/traced.Seconds())
	j.r.put("process.allocs_per_op", float64(allocs)/float64(ops))
	j.r.put("bench.trace_overhead_pct", 100*(traced.Seconds()/untraced.Seconds()-1))
	j.r.put("bench.span_coverage_pct", coverage(spans))
	j.r.printf("traced %d ops: %.4g s per op traced, %.4g s untraced", ops, traced.Seconds()/float64(ops), untraced.Seconds()/float64(ops))
	return nil
}
