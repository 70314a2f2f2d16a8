package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"time"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/dataset"
	"hcrowd/internal/eval"
	"hcrowd/internal/experiments"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
)

// fig2Job regenerates Figure 2 back to back, one caller, each figure
// with the next seed of the run's panel.
type fig2Job struct {
	r       *runner
	digests map[int64]string // figure seed -> SHA-256 of its rendering
}

func setupFig2(r *runner) (job, error) {
	// A quick figure runs every aggregator and the HC arm once, so the
	// timed figures find the heap sized and the code paged in. Its seed
	// is fixed: a quick figure's time varies twofold with the seed, and
	// setup_s should not.
	if _, err := experiments.Fig2(context.Background(), experiments.Options{Seed: 1, Quick: true}); err != nil {
		return nil, err
	}
	return &fig2Job{r: r, digests: make(map[int64]string)}, nil
}

func (j *fig2Job) close() error { return nil }

// figSeed is the experiment seed of the run's i-th figure. The first
// seed runs twice, so every run checks that a figure repeats byte for
// byte.
func (j *fig2Job) figSeed(i int) int64 {
	return j.r.seed*1000 + int64(max(i-1, 0)%j.r.sz.fig2Panel)
}

func (j *fig2Job) options(seed int64) experiments.Options {
	return experiments.Options{Seed: seed, Quick: j.r.sz.fig2Quick}
}

// figure runs experiments.Fig2 and renders it, as hcbench does.
func (j *fig2Job) figure(ctx context.Context, seed int64) (*experiments.Figure, error) {
	fig, err := experiments.Fig2(ctx, j.options(seed))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	checkDigest(j.r, "fig2", seed, hex.EncodeToString(sum[:]), j.digests)
	return fig, nil
}

func (j *fig2Job) measure(ctx context.Context, deadline time.Time) (*opStats, error) {
	st := &opStats{}
	t0 := time.Now()
	err := closedLoop(ctx, deadline, func(i int) error {
		t := time.Now()
		if _, err := j.figure(ctx, j.figSeed(i)); err != nil {
			return err
		}
		st.lat.Add(time.Since(t).Seconds())
		st.ops++
		return nil
	})
	st.window = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if st.rssMB, err = peakRSS(); err != nil {
		return nil, err
	}
	j.r.requests(int64(st.ops), 0)
	figs := st.lat.Succeeded()
	j.r.printf("fig2_s median %.4g s, IQR/median %.3f, max %.4g s (n=%d)", Median(figs), Spread(figs), maxOf(figs), st.ops)
	return st, nil
}

// trace alternates an untraced figure with a traced replay of the same
// figure: the replay repeats Fig2's calls through the layers' public
// functions with a span around each, and must reproduce Fig2's grid
// exactly.
func (j *fig2Job) trace(ctx context.Context, tr *Tracer, deadline time.Time) error {
	var untraced, traced time.Duration
	var figures int
	var allocs uint64
	rounds := &roundSummary{}
	err := closedLoop(ctx, deadline, func(i int) error {
		seed := j.figSeed(i)
		t := time.Now()
		fig, err := j.figure(ctx, seed)
		if err != nil {
			return err
		}
		untraced += time.Since(t)
		m0 := mallocs()
		t = time.Now()
		g, err := replayFig2(ctx, tr, j.options(seed), rounds)
		if err != nil {
			return err
		}
		traced += time.Since(t)
		allocs += mallocs() - m0
		figures++
		j.r.check(sameGrid(fig.Grids[0], g), "fig2 seed %d: traced replay differs from experiments.Fig2's grid", seed)
		return nil
	})
	if err != nil {
		return err
	}
	j.r.requests(int64(2*figures), 0)
	spans := tr.Spans()
	self := SelfByName(spans)
	total, count := Stats(spans)
	perFig := func(d time.Duration) float64 { return ms(d) / float64(figures) }
	for _, a := range aggregatorNames {
		j.r.put("aggregate."+a+".ms", perFig(self["aggregate."+a]))
	}
	j.r.put("dataset.with_expert_answers.ms", perFig(total["dataset.with_expert_answers"]))
	j.r.put("dataset.with_expert_answers.calls", float64(count["dataset.with_expert_answers"])/float64(figures))
	j.r.put("eval.ms", perFig(total["eval.accuracy"]+total["eval.render"]))
	j.r.put("pipeline.hc_arm.ms", perFig(total["pipeline.run"]))
	j.r.put("fig2.unaccounted_ms", perFig(self[rootSpan]))
	j.r.put("aggregate.init.ms", perFig(total["aggregate.init"]))
	rounds.put(j.r, "uniform")
	j.r.put("pipeline.rounds_per_s", float64(rounds.rounds)/traced.Seconds())
	j.r.put("process.allocs_per_op", float64(allocs)/float64(figures))
	j.r.put("bench.trace_overhead_pct", 100*(traced.Seconds()/untraced.Seconds()-1))
	j.r.put("bench.span_coverage_pct", coverage(spans))
	j.r.printf("traced %d figures: %.4g s per figure traced, %.4g s untraced", figures, traced.Seconds()/float64(figures), untraced.Seconds()/float64(figures))
	for _, a := range aggregatorNames {
		n := "aggregate." + a
		j.r.printf("%s: %.4g ms per figure in %d calls", n, perFig(self[n]), count[n]/figures)
	}
	return nil
}

// replayFig2 performs experiments.Fig2's calls for one seed, a span
// around each, adds the HC arm's rounds to rounds, and returns the grid
// it computes.
func replayFig2(ctx context.Context, tr *Tracer, o experiments.Options, rounds *roundSummary) (*eval.Grid, error) {
	trace := fmt.Sprintf("fig2-%d", o.Seed)
	root := tr.Begin(trace, 0, rootSpan)
	defer tr.End(root)
	call := func(name string, f func() error) error {
		id := tr.Begin(trace, root, name)
		defer tr.End(id)
		return f()
	}

	grid := []float64{0, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	cfg := dataset.DefaultSentiConfig()
	cfg.NumTasks = 200
	if o.Quick {
		grid = []float64{0, 20, 40, 60, 80, 100}
		cfg.NumTasks = 30
	}
	var ds *dataset.Dataset
	var couple float64
	err := call("dataset.senti_like", func() (err error) {
		if ds, err = dataset.SentiLike(rngutil.New(o.Seed), cfg); err != nil {
			return err
		}
		couple, err = ds.EstimateCoupling()
		return err
	})
	if err != nil {
		return nil, err
	}

	// The HC arm: EBCC-initialized checking loop with simulated experts.
	res, err := rounds.run(ctx, pipeline.Run, ds, pipeline.Config{
		K:             1,
		Budget:        grid[len(grid)-1],
		Init:          aggregate.NewEBCC(o.Seed + 1),
		Source:        pipeline.NewSimulated(o.Seed+2, ds),
		PriorCoupling: couple,
	}, tr, trace, root)
	if err != nil {
		return nil, err
	}
	g := &eval.Grid{X: grid}
	hc := make([]float64, len(grid))
	for i, b := range grid {
		a := res.InitAccuracy
		for _, r := range res.Rounds {
			if r.BudgetSpent > b {
				break
			}
			a = r.Accuracy
		}
		hc[i] = a
	}
	g.Series = append(g.Series, eval.Series{Name: "HC", Y: hc})

	// The baselines: the same budget as extra expert answers.
	for _, agg := range aggregate.Registry(o.Seed + 3) {
		y := eval.NaNs(len(grid))
		for i, b := range grid {
			m := ds.Prelim
			if b > 0 {
				err := call("dataset.with_expert_answers", func() (err error) {
					m, err = ds.WithExpertAnswers(rngutil.New(o.Seed+10+int64(i)), int(b))
					return err
				})
				if err != nil {
					return nil, err
				}
			}
			var res *aggregate.Result
			if err := call("aggregate."+agg.Name(), func() (err error) {
				res, err = agg.Aggregate(m)
				return err
			}); err != nil {
				return nil, err
			}
			var a float64
			if err := call("eval.accuracy", func() (err error) {
				a, err = res.Accuracy(ds.Truth)
				return err
			}); err != nil {
				return nil, err
			}
			y[i] = math.Round(a*1e4) / 1e4
		}
		g.Series = append(g.Series, eval.Series{Name: agg.Name(), Y: y})
	}
	err = call("eval.render", func() error { return g.Render(io.Discard) })
	return g, err
}

// sameGrid reports whether two grids have the same budgets and series,
// bit for bit.
func sameGrid(a, b *eval.Grid) bool {
	if len(a.Series) != len(b.Series) || !sameFloats(a.X, b.X) {
		return false
	}
	for i := range a.Series {
		if a.Series[i].Name != b.Series[i].Name || !sameFloats(a.Series[i].Y, b.Series[i].Y) {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
