package experiments

import (
	"context"
	"fmt"

	"hcrowd/internal/admit"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/eval"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
)

// streamRounds is the round grid of the streaming figure.
func (o Options) streamRounds() int {
	if o.Quick {
		return 12
	}
	return 40
}

// streamBase is the number of tasks available up front; the rest of
// numTasks arrives over the run as two-task fragments.
func (o Options) streamBase() int {
	return (o.numTasks()*2 + 2) / 3
}

// Streaming charts label quality and accuracy against time (checking
// rounds) when the task set is not closed: only streamBase tasks exist
// at round 1 and the remainder arrives as a seeded Poisson process,
// each admission refilling one rolling budget window. It is the
// experiment behind the event-driven round scheduler — the closed-loop
// figures hold the task set fixed, this one holds the seed fixed and
// lets the workload move. Both loop flavors run the identical arrival
// schedule, so their curves are directly comparable.
func Streaming(ctx context.Context, o Options) (*Figure, error) {
	scfg := dataset.DefaultSentiConfig()
	scfg.NumTasks = o.streamBase()
	streamed := o.numTasks() - scfg.NumTasks

	build := func() (*dataset.Dataset, *pipeline.ScheduleSource, error) {
		ds, err := dataset.SentiLike(rngutil.New(o.Seed), scfg)
		if err != nil {
			return nil, nil, err
		}
		// One two-task fragment per arrival, drawn from a stream seeded
		// independently of the base dataset.
		frng := rngutil.New(o.Seed + 41)
		frags := make([]*dataset.Fragment, 0, (streamed+1)/2)
		for left := streamed; left > 0; left -= 2 {
			n := 2
			if left < 2 {
				n = left
			}
			fr, err := dataset.SentiFragment(frng, ds, dataset.DefaultSentiConfig(), n)
			if err != nil {
				return nil, nil, err
			}
			frags = append(frags, fr)
		}
		// Poisson arrivals binned at round boundaries: the engine polls the
		// source once per boundary, so Batches[i] is folded in before round
		// i+1 plans. The rate spreads the expected arrivals over the first
		// two thirds of the grid; leftovers land on the final boundary so
		// the schedule always delivers the whole workload.
		horizon := float64(o.streamRounds()) * 2 / 3
		rate := float64(len(frags)) / horizon
		bounds := make([]float64, o.streamRounds()+1)
		for i := range bounds {
			bounds[i] = float64(i)
		}
		counts, err := admit.Batches(rngutil.New(o.Seed+42), rate, bounds)
		if err != nil {
			return nil, nil, err
		}
		batches := make([][]*dataset.Fragment, len(counts))
		next := 0
		for i, c := range counts {
			for j := 0; j < c && next < len(frags); j++ {
				batches[i] = append(batches[i], frags[next])
				next++
			}
		}
		batches[len(batches)-1] = append(batches[len(batches)-1], frags[next:]...)
		return ds, &pipeline.ScheduleSource{Batches: batches}, nil
	}

	grid := make([]float64, o.streamRounds())
	for i := range grid {
		grid[i] = float64(i + 1)
	}
	g := &eval.Grid{
		Title:  "Streaming: quality vs rounds under Poisson task arrivals",
		XLabel: "round",
		X:      grid,
	}
	admitted := &eval.Grid{
		Title:  "Streaming: cumulative tasks admitted",
		XLabel: "round",
		X:      grid,
	}

	for _, flavor := range []struct {
		name string
		run  func(context.Context, *dataset.Dataset, pipeline.Config) (*pipeline.Result, error)
		cost func(crowd.Worker) float64
	}{
		{"HC", pipeline.Run, nil},
		{"HC-cost", pipeline.RunCostAware, func(w crowd.Worker) float64 { return 1 + (1 - w.Accuracy) }},
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ds, src, err := build()
		if err != nil {
			return nil, err
		}
		cfg, err := hcConfig(o, ds, 1)
		if err != nil {
			return nil, err
		}
		// A third of the grid's budget is available up front; every
		// admission refills one window sized to fund roughly one pick.
		cfg.Budget = o.maxBudget() / 3
		ce, _ := ds.Split()
		cfg.BudgetWindow = float64(len(ce))
		cfg.Admit = src
		rec := &pipeline.MetricsRecorder{}
		cfg.Metrics = pipeline.MultiMetrics{rec, o.Metrics}
		cfg.Cost = flavor.cost
		res, err := flavor.run(ctx, ds, cfg)
		if err != nil {
			return nil, fmt.Errorf("streaming %s: %w", flavor.name, err)
		}
		qual := eval.NaNs(len(grid))
		acc := eval.NaNs(len(grid))
		adm := eval.NaNs(len(grid))
		q, a, cum := res.InitQuality, res.InitAccuracy, 0
		metricRounds := rec.Rounds()
		for i := range grid {
			if i < len(res.Rounds) {
				q, a = res.Rounds[i].Quality, res.Rounds[i].Accuracy
			}
			if i < len(metricRounds) {
				cum += metricRounds[i].TasksAdmitted
			}
			qual[i] = round4(q)
			acc[i] = round4(a)
			adm[i] = float64(cum)
		}
		g.Series = append(g.Series,
			eval.Series{Name: flavor.name + " quality", Y: qual},
			eval.Series{Name: flavor.name + " accuracy", Y: acc})
		admitted.Series = append(admitted.Series, eval.Series{Name: flavor.name, Y: adm})
	}
	return &Figure{
		ID:    "streaming",
		Title: "Quality over time with streaming task admission",
		Grids: []*eval.Grid{g, admitted},
	}, nil
}
