package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/dataset"
	"hcrowd/internal/eval"
	"hcrowd/internal/rngutil"
)

// Fig2 reproduces Figure 2: accuracy vs. checking budget for hierarchical
// crowdsourcing against the eight aggregation baselines. HC spends the
// budget on selected checking queries answered by the expert tier
// (initialized by EBCC as in §IV-A); each baseline spends the same budget
// as uniformly assigned extra expert answers appended to the preliminary
// matrix, then aggregates everything.
//
// The HC arm and each budget point are independent jobs, run on a pool of
// GOMAXPROCS goroutines. Every job writes only its own grid slots, so the
// output does not depend on the schedule (DESIGN.md, Determinism).
func Fig2(ctx context.Context, o Options) (*Figure, error) {
	ds, err := o.sentiDataset()
	if err != nil {
		return nil, err
	}
	grid := o.budgets()
	cfg, err := hcConfig(o, ds, 1)
	if err != nil {
		return nil, err
	}
	aggs := aggregate.Registry(o.Seed + 3)

	var hc []float64
	var hcErr error
	ys := make([][]float64, len(aggs)) // ys[a][i]: aggregator a at budget i
	for a := range ys {
		ys[a] = eval.NaNs(len(grid))
	}
	// errs[a*len(grid)+i] is the error cell (a, i) hit: scanning it in
	// order finds the error a serial aggregator-major loop would return.
	errs := make([]error, len(aggs)*len(grid))

	// Job -1 is the HC arm, job i the baselines at budget point i. The
	// longest jobs (HC, then the largest budgets) are queued first.
	jobs := make(chan int, len(grid)+1)
	jobs <- -1
	for i := len(grid) - 1; i >= 0; i-- {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(grid)+1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if i < 0 {
					hc, _, hcErr = runHC(ctx, ds, cfg, grid)
					continue
				}
				if a, err := fig2Budget(ctx, ds, aggs, o.Seed, grid, i, ys); err != nil {
					errs[a*len(grid)+i] = err
				}
			}
		}()
	}
	wg.Wait()
	if hcErr != nil {
		return nil, hcErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	g := &eval.Grid{
		Title:  "Figure 2: accuracy vs budget, HC vs baselines",
		XLabel: "budget",
		X:      grid,
		Series: []eval.Series{{Name: "HC", Y: hc}},
	}
	for a, agg := range aggs {
		g.Series = append(g.Series, eval.Series{Name: agg.Name(), Y: ys[a]})
	}
	return &Figure{
		ID:    "fig2",
		Title: "Comparison with baseline algorithms",
		Grids: []*eval.Grid{g},
	}, nil
}

// fig2Budget runs every baseline at budget point i on the preliminary
// matrix plus grid[i] undirected extra expert answers, writing
// ys[a][i]. The matrix is built once and lives only for the call. On
// failure it returns the index of the aggregator whose cell failed.
func fig2Budget(ctx context.Context, ds *dataset.Dataset, aggs []aggregate.Aggregator, seed int64, grid []float64, i int, ys [][]float64) (int, error) {
	b := grid[i]
	m := ds.Prelim
	if b > 0 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var err error
		if m, err = ds.WithExpertAnswers(rngutil.New(seed+10+int64(i)), int(b)); err != nil {
			return 0, err
		}
	}
	for a, agg := range aggs {
		if err := ctx.Err(); err != nil {
			return a, err
		}
		res, err := agg.Aggregate(m)
		if err != nil {
			return a, fmt.Errorf("fig2: %s at budget %v: %w", agg.Name(), b, err)
		}
		acc, err := res.Accuracy(ds.Truth)
		if err != nil {
			return a, err
		}
		ys[a][i] = round4(acc)
	}
	return 0, nil
}
