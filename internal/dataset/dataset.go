package dataset

import (
	"errors"
	"fmt"
	"math/rand"

	"hcrowd/internal/crowd"
	"hcrowd/internal/rngutil"
)

// Dataset bundles everything an experiment needs: the ground truth, the
// task grouping (facts within a task are correlated; tasks are mutually
// independent), the worker pool with true accuracies, the split threshold,
// and the preliminary answer matrix collected from CP workers.
type Dataset struct {
	Truth  []bool
	Tasks  [][]int
	Crowd  crowd.Crowd
	Theta  float64
	Prelim *Matrix
}

// Validate checks the dataset invariants: tasks partition the facts, the
// matrix covers the same fact space, and the crowd is valid.
func (ds *Dataset) Validate() error {
	if len(ds.Truth) == 0 {
		return errors.New("dataset: empty ground truth")
	}
	if ds.Prelim == nil {
		return errors.New("dataset: missing preliminary answers")
	}
	if ds.Prelim.NumFacts() != len(ds.Truth) {
		return fmt.Errorf("dataset: matrix has %d facts, truth has %d", ds.Prelim.NumFacts(), len(ds.Truth))
	}
	if err := ds.Crowd.Validate(); err != nil {
		return err
	}
	seen := make([]bool, len(ds.Truth))
	for t, facts := range ds.Tasks {
		if len(facts) == 0 {
			return fmt.Errorf("dataset: task %d is empty", t)
		}
		for j, f := range facts {
			if f < 0 || f >= len(ds.Truth) {
				return fmt.Errorf("dataset: task %d references fact %d out of range", t, f)
			}
			if seen[f] {
				return fmt.Errorf("dataset: fact %d appears in two tasks", f)
			}
			seen[f] = true
			// Local fact order must follow global order: the pipeline
			// relies on the global-to-local index map being monotone.
			if j > 0 && facts[j-1] >= f {
				return fmt.Errorf("dataset: task %d facts not strictly increasing at %d", t, j)
			}
		}
	}
	for f, ok := range seen {
		if !ok {
			return fmt.Errorf("dataset: fact %d belongs to no task", f)
		}
	}
	return nil
}

// Split returns the expert and preliminary sub-crowds at the dataset's
// threshold (Definition 1).
func (ds *Dataset) Split() (ce, cp crowd.Crowd) { return ds.Crowd.Split(ds.Theta) }

// TruthFn adapts the ground truth to the crowd simulator's interface.
func (ds *Dataset) TruthFn() crowd.Truth {
	return func(f int) bool { return ds.Truth[f] }
}

// TaskTruth returns the ground-truth labels of task t's facts in task
// order.
func (ds *Dataset) TaskTruth(t int) []bool {
	out := make([]bool, len(ds.Tasks[t]))
	for i, f := range ds.Tasks[t] {
		out[i] = ds.Truth[f]
	}
	return out
}

// NumFacts returns the number of facts in the dataset.
func (ds *Dataset) NumFacts() int { return len(ds.Truth) }

// TaskOf returns, for every fact, the task containing it and the fact's
// local index within that task.
func (ds *Dataset) TaskOf() (task, local []int) {
	task = make([]int, len(ds.Truth))
	local = make([]int, len(ds.Truth))
	for t, facts := range ds.Tasks {
		for j, f := range facts {
			task[f] = t
			local[f] = j
		}
	}
	return task, local
}

// WithExpertAnswers clones the preliminary matrix and appends `budget`
// expert answers assigned uniformly at random over (fact, expert) pairs
// not yet answered. This is how the Figure 2 baselines spend the same
// budget HC spends on selected checking tasks: as undirected extra
// redundancy. Experts answer with their true accuracy. A budget above
// the number of free pairs is truncated; a negative one is an error.
func (ds *Dataset) WithExpertAnswers(rng *rand.Rand, budget int) (*Matrix, error) {
	if budget < 0 {
		return nil, fmt.Errorf("dataset: negative expert-answer budget %d", budget)
	}
	ce, _ := ds.Split()
	if len(ce) == 0 {
		return nil, errors.New("dataset: no expert workers above theta")
	}
	m := ds.Prelim.Clone()
	ceIdx := make([]int, len(ce))
	ids := make([]string, len(ce))
	for i, w := range ce {
		ids[i] = w.ID
	}
	first, err := m.AddWorkers(ids...)
	if err != nil {
		return nil, err
	}
	for i := range ce {
		ceIdx[i] = first + i
	}
	// Enumerate unanswered (fact, expert) pairs and sample without
	// replacement.
	type pair struct{ f, e int }
	var free []pair
	for f := 0; f < m.NumFacts(); f++ {
		for e := range ce {
			if !m.Has(f, ceIdx[e]) {
				free = append(free, pair{f, e})
			}
		}
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	if budget > len(free) {
		budget = len(free)
	}
	truth := ds.TruthFn()
	for _, p := range free[:budget] {
		correct := rngutil.Bernoulli(rng, ce[p.e].Accuracy)
		v := truth(p.f)
		if !correct {
			v = !v
		}
		if err := m.Add(p.f, ceIdx[p.e], v); err != nil {
			return nil, err
		}
	}
	return m, nil
}
