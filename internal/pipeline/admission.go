package pipeline

import (
	"context"

	"hcrowd/internal/belief"
	"hcrowd/internal/dataset"
)

// AdmissionSource feeds task fragments into a running engine, turning the
// closed checking loop into an event-driven round scheduler: the engine
// polls it at every round boundary and folds the returned fragments into
// the dataset, beliefs, stop-rule state and selection caches before
// planning the next round.
//
// Poll with wait == false returns immediately with whatever has arrived
// since the last call (possibly nothing). Poll with wait == true is the
// engine's idle path — the budget is exhausted or nothing is left worth
// checking — and must block until at least one fragment is available or
// the stream is finished; an empty result under wait == true means no
// more tasks will ever arrive and ends the run. Implementations must be
// deterministic relative to the round schedule for seed-reproducible
// runs: the engine issues exactly one non-blocking poll per round
// boundary, in round order.
type AdmissionSource interface {
	Poll(ctx context.Context, wait bool) ([]*dataset.Fragment, error)
}

// ScheduleSource is the deterministic AdmissionSource used by the
// streaming experiments and tests: Batches[i] is handed out on the i-th
// poll (the engine polls once per round boundary, so batch i arrives
// before round i+1 plans). A blocking poll skips empty batches — they
// model boundaries where nothing arrived — and the stream finishes when
// the batches run out. Not safe for concurrent use; drive one engine per
// source.
type ScheduleSource struct {
	Batches [][]*dataset.Fragment
	next    int
}

// Poll implements AdmissionSource.
func (s *ScheduleSource) Poll(_ context.Context, wait bool) ([]*dataset.Fragment, error) {
	for s.next < len(s.Batches) {
		b := s.Batches[s.next]
		s.next++
		if len(b) > 0 || !wait {
			return b, nil
		}
	}
	return nil, nil
}

// fragmentBeliefs initializes the beliefs of one admitted fragment's
// tasks from its batch-local answer matrix, under the run's configured
// initialization strategy (aggregator, structural prior, coupling). A
// fragment arriving without preliminary answers starts uniform — running
// an aggregator over an empty matrix adds nothing, every fact would sit
// at 0.5 regardless.
func fragmentBeliefs(fr *dataset.Fragment, local *dataset.Matrix, cfg Config) ([]*belief.Dist, error) {
	// initBeliefs reads only Tasks and Prelim, both of which are
	// fragment-local here, so the marginals land on the right local facts.
	tmp := &dataset.Dataset{Truth: fr.Truth, Tasks: fr.Tasks, Prelim: local}
	cfg.UniformInit = cfg.UniformInit || local.NumAnswers() == 0
	return initBeliefs(tmp, cfg)
}

// admitAll folds admission batches into the running engine's state, in
// arrival order: grow the dataset, initialize the new tasks' beliefs,
// extend the stop-rule vectors, grow the plan's selection cache, and
// refill the rolling budget window once per fragment. It returns the
// number of tasks admitted.
func admitAll(ds *dataset.Dataset, cfg Config, plan roundPlan, st *stopState, frags []*dataset.Fragment, beliefs *[]*belief.Dist, budget *float64) (int, error) {
	tasks := 0
	for _, fr := range frags {
		if fr == nil {
			continue
		}
		_, local, err := ds.Admit(fr)
		if err != nil {
			return tasks, err
		}
		nb, err := fragmentBeliefs(fr, local, cfg)
		if err != nil {
			return tasks, err
		}
		*beliefs = append(*beliefs, nb...)
		st.admit(ds)
		plan.admit(len(ds.Tasks))
		*budget += cfg.BudgetWindow
		tasks += len(nb)
	}
	return tasks, nil
}

// admit grows the stop-rule vectors to the dataset's current size; new
// facts start with zero votes (never frozen — the rule needs at least one
// answer to fire) and new tasks with an all-false frozen row.
func (s *stopState) admit(ds *dataset.Dataset) {
	if s.rule == nil {
		return
	}
	n := ds.NumFacts()
	for len(s.yes) < n {
		s.yes = append(s.yes, 0)
		s.no = append(s.no, 0)
	}
	for t := len(s.frozen); t < len(ds.Tasks); t++ {
		s.frozen = append(s.frozen, make([]bool, len(ds.Tasks[t])))
	}
}

// admit implements roundPlan for uniformPlan: grow the incremental
// selection cache (a stateless selector needs nothing — it re-reads the
// problem every round).
func (u *uniformPlan) admit(total int) {
	if u.state != nil {
		u.state.Admit(total)
	}
}

// admit implements roundPlan for costPlan.
func (c *costPlan) admit(total int) { c.state.Admit(total) }

// compile-time checks that both plans stay event-driven.
var (
	_ roundPlan       = (*uniformPlan)(nil)
	_ roundPlan       = (*costPlan)(nil)
	_ AdmissionSource = (*ScheduleSource)(nil)
)
