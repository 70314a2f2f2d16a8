package pipeline

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"context"

	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/taskselect"
)

// purchase is one answer-collection order within a round: ask panel to
// answer the task's locals. The uniform flavor issues one purchase per
// touched task with the full expert crowd as the panel; the cost-aware
// flavor issues one purchase per bought (task, worker) group. The engine
// executes purchases in slice order, which plans must keep sorted by task
// (then panel) — the shared seeded answer source is order-sensitive.
type purchase struct {
	task   int
	locals []int
	panel  crowd.Crowd
}

// roundPlan is the strategy half of the checking loop: how one round's
// budget turns into answer purchases. The engine owns everything else —
// answer collection, spend accounting for answers actually received,
// belief updates, stop-rule bookkeeping, round stats, checkpoints.
type roundPlan interface {
	// plan proposes the round's purchases given the remaining budget.
	// Empty purchases end the run (budget exhausted or nothing left worth
	// buying). picks is the round's RoundStats record.
	plan(ctx context.Context, p taskselect.Problem, remaining float64) (buys []purchase, picks []taskselect.Candidate, err error)
	// invalidate reports the tasks whose beliefs the round updated, in
	// ascending order, so an incremental selector can drop only those.
	invalidate(tasks []int)
	// cache exports the plan's warm-resume selection state (nil when the
	// selector is not incremental).
	cache() *taskselect.SelectionCache
	// flavor names the plan for metrics ("uniform" or "costaware").
	flavor() string
	// stats snapshots the plan's cumulative selector work counters (zero
	// when the selector is not incremental).
	stats() taskselect.SelectStats
	// admit grows the plan's selection cache to total tasks after a
	// streaming admission, so existing tasks' cached gains survive
	// instead of cold-resyncing; a no-op for stateless selectors.
	admit(total int)
}

// The loop flavors' names, as RoundMetrics.Flavor reports them.
const (
	flavorUniform   = "uniform"
	flavorCostAware = "costaware"
)

// stopState tracks the per-fact vote counts and frozen masks of the
// Abraham et al. stopping rule across rounds. A nil rule makes every
// method a no-op and the frozen mask nil.
type stopState struct {
	rule    *StopRule
	yes, no []int
	frozen  [][]bool
}

// newStopState builds the tracker, rebuilding the frozen masks from
// checkpointed vote counts when votes is non-nil. The rebuild equals the
// incremental marking of an uninterrupted run: votes only ever change for
// requested facts, and a frozen fact is never requested again, so its
// counts — and the rule's verdict on them — are final.
func newStopState(ds *dataset.Dataset, rule *StopRule, votes *StopVotes) (*stopState, error) {
	s := &stopState{rule: rule}
	if rule == nil {
		if votes != nil {
			return nil, errors.New("pipeline: checkpoint has stop votes but Config.Stop is unset")
		}
		return s, nil
	}
	n := ds.NumFacts()
	s.yes = make([]int, n)
	s.no = make([]int, n)
	if votes != nil {
		if len(votes.Yes) != n || len(votes.No) != n {
			return nil, fmt.Errorf("pipeline: checkpoint stop votes cover %d/%d facts, dataset has %d",
				len(votes.Yes), len(votes.No), n)
		}
		copy(s.yes, votes.Yes)
		copy(s.no, votes.No)
	}
	s.frozen = make([][]bool, len(ds.Tasks))
	for t, facts := range ds.Tasks {
		s.frozen[t] = make([]bool, len(facts))
		for j, g := range facts {
			if rule.Stopped(s.yes[g], s.no[g]) {
				s.frozen[t][j] = true
			}
		}
	}
	return s, nil
}

// observe folds one purchase's answers into the vote counts and freezes
// the requested facts the rule has settled. fam is task-local.
func (s *stopState) observe(ds *dataset.Dataset, task int, locals []int, fam crowd.AnswerFamily) {
	if s.rule == nil {
		return
	}
	for _, as := range fam {
		for i, lf := range as.Facts {
			g := ds.Tasks[task][lf]
			if as.Values[i] {
				s.yes[g]++
			} else {
				s.no[g]++
			}
		}
	}
	for _, lf := range locals {
		g := ds.Tasks[task][lf]
		if s.rule.Stopped(s.yes[g], s.no[g]) {
			s.frozen[task][lf] = true
		}
	}
}

// frozenCount counts the (task, fact) pairs the rule has settled.
func (s *stopState) frozenCount() int {
	n := 0
	for _, row := range s.frozen {
		for _, f := range row {
			if f {
				n++
			}
		}
	}
	return n
}

// snapshot exports the vote counts for checkpointing; nil without a rule.
func (s *stopState) snapshot() *StopVotes {
	if s.rule == nil {
		return nil
	}
	return &StopVotes{
		Yes: append([]int{}, s.yes...),
		No:  append([]int{}, s.no...),
	}
}

// runEngine is the single checking loop behind Run, RunCostAware and
// RunTiers: repeatedly ask the plan what to buy, collect the answers in
// deterministic order, charge for the answers actually received, update
// the touched beliefs, track the stopping rule, and record the round.
// spentBefore is the budget consumed before this engine started
// (resume), folded into the checkpoints it emits.
func runEngine(ctx context.Context, ds *dataset.Dataset, cfg Config, ce crowd.Crowd, beliefs []*belief.Dist, plan roundPlan, st *stopState, spentBefore float64) (*Result, error) {
	if cfg.BudgetWindow < 0 {
		return nil, errors.New("pipeline: Config.BudgetWindow must not be negative")
	}
	res := &Result{Beliefs: beliefs}
	res.InitQuality = totalQuality(beliefs)
	acc, err := totalAccuracy(ds, beliefs)
	if err != nil {
		return nil, err
	}
	res.InitAccuracy = acc

	answerCost := func(w crowd.Worker) float64 {
		if cfg.Cost != nil {
			return cfg.Cost(w)
		}
		return 1
	}

	budget := cfg.Budget
	round := 0
	prevQ := res.InitQuality
	// admitted counts the tasks folded in since the last completed round,
	// so the next round's metrics record can attribute them; justAdmitted
	// suppresses the boundary poll right after the idle path already
	// admitted a batch, so one planning attempt sees one batch at most.
	admitted := 0
	justAdmitted := false
	for {
		if cfg.MaxRounds > 0 && round >= cfg.MaxRounds {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Streaming admission, non-blocking: fold whatever arrived since
		// the last round boundary into the dataset, beliefs, stop state and
		// selection caches, and refill the rolling budget window per batch.
		if cfg.Admit != nil && !justAdmitted {
			frags, err := cfg.Admit.Poll(ctx, false)
			if err != nil {
				return nil, err
			}
			n, err := admitAll(ds, cfg, plan, st, frags, &beliefs, &budget)
			if err != nil {
				return nil, err
			}
			admitted += n
			res.TasksAdmitted += n
			res.Beliefs = beliefs
		}
		justAdmitted = false
		// Metrics bookkeeping is gated on the sink so an uninstrumented run
		// pays nothing; none of it feeds back into the loop.
		var roundStart time.Time
		var statsBefore taskselect.SelectStats
		if cfg.Metrics != nil {
			roundStart = time.Now() //hclint:ignore time-hygiene metrics-only timestamp: gated on cfg.Metrics, feeds RoundMetrics.Duration and never selection, ordering, or the RNG (TestMetricsDeterministicGivenSeed pins this)
			statsBefore = plan.stats()
		}
		problem := taskselect.Problem{Beliefs: beliefs, Experts: ce, Frozen: st.frozen}
		buys, picks, err := plan.plan(ctx, problem, budget)
		if err != nil {
			return nil, err
		}
		if len(buys) == 0 {
			if cfg.Admit == nil {
				break // budget exhausted or nothing left worth checking
			}
			// Event-driven idle path: nothing affordable or worth checking
			// right now, but the admission stream is still open — park on
			// the source until the next batch (which also refills the
			// window) or until the stream finishes.
			frags, err := cfg.Admit.Poll(ctx, true)
			if err != nil {
				return nil, err
			}
			if len(frags) == 0 {
				break // admission stream finished; the run is complete
			}
			n, err := admitAll(ds, cfg, plan, st, frags, &beliefs, &budget)
			if err != nil {
				return nil, err
			}
			admitted += n
			res.TasksAdmitted += n
			res.Beliefs = beliefs
			justAdmitted = true
			continue
		}
		// Execute the purchases in plan order (sorted by task — Go map
		// order is randomized, and every family draw advances the shared
		// seeded RNG of the answer source, so any other order would make
		// identical-seed runs diverge; the determinism regression tests
		// pin this down). The budget is charged for the answers actually
		// received: fewer than requested when a source returns a partial
		// round, e.g. an expert timed out.
		var spent float64
		var touched []int
		var requested, received int
		for _, bu := range buys {
			requested += len(bu.locals) * len(bu.panel)
			globals := make([]int, len(bu.locals))
			for i, lf := range bu.locals {
				globals[i] = ds.Tasks[bu.task][lf]
			}
			fam, err := cfg.Source.Answers(bu.panel, globals)
			if err != nil {
				return nil, err
			}
			if len(fam) == 0 {
				return nil, fmt.Errorf("pipeline: source returned no answers for round %d", round+1)
			}
			for _, as := range fam {
				received += len(as.Facts)
				spent += float64(len(as.Facts)) * answerCost(as.Worker)
			}
			// Re-index the family from global to local facts; the source
			// returns facts sorted, and locals sort identically because a
			// task's global facts are in ascending local order.
			local, err := relabelFamily(fam, globals, bu.locals)
			if err != nil {
				return nil, err
			}
			if err := beliefs[bu.task].Update(local); err != nil {
				return nil, err
			}
			st.observe(ds, bu.task, bu.locals, local)
			if len(touched) == 0 || touched[len(touched)-1] != bu.task {
				touched = append(touched, bu.task)
			}
		}
		// Only the tasks that received answers changed; an incremental
		// selector keeps every other task's cached gains.
		plan.invalidate(touched)
		budget -= spent
		// Floor the remaining budget at zero and record the excess: the
		// plans clamp purchases to what remains, but a source delivering
		// more answers than requested (each still charged) or the
		// affordability clamp's epsilon can push the charge past the
		// remainder, and a negative balance must not silently shrink the
		// next rolling-window refill.
		var over float64
		if budget < 0 {
			over = -budget
			budget = 0
		}
		res.BudgetSpent += spent
		res.Overspent += over
		round++
		q := totalQuality(beliefs)
		acc, err := totalAccuracy(ds, beliefs)
		if err != nil {
			return nil, err
		}
		res.Rounds = append(res.Rounds, RoundStats{
			Round:       round,
			Picks:       picks,
			BudgetSpent: res.BudgetSpent,
			Quality:     q,
			Accuracy:    acc,
		})
		if cfg.Metrics != nil {
			cfg.Metrics.RecordRound(RoundMetrics{
				Round:            round,
				Flavor:           plan.flavor(),
				Duration:         time.Since(roundStart), //hclint:ignore time-hygiene metrics-only duration: reported, never read back by the loop
				QueriesBought:    len(picks),
				AnswersRequested: requested,
				AnswersReceived:  received,
				Spent:            spent,
				BudgetSpent:      spentBefore + res.BudgetSpent,
				Overspent:        over,
				TasksAdmitted:    admitted,
				Quality:          q,
				QualityDelta:     q - prevQ,
				FrozenFacts:      st.frozenCount(),
				Selector:         plan.stats().Sub(statsBefore),
			})
		}
		admitted = 0
		prevQ = q
		if cfg.Journal != nil {
			// The round's commit point: a hook that cannot commit stops the
			// run — advancing past an un-durable round would make the
			// in-memory state unrecoverable.
			if err := cfg.Journal(round, engineCheckpoint(res, plan, st, spentBefore)); err != nil {
				return nil, fmt.Errorf("pipeline: journal commit round %d: %w", round, err)
			}
		}
	}
	res.Quality = totalQuality(beliefs)
	finalAcc, err := totalAccuracy(ds, beliefs)
	if err != nil {
		return nil, err
	}
	res.Accuracy = finalAcc
	res.Labels = finalLabels(ds, beliefs)
	res.selCache = plan.cache()
	res.stopVotes = st.snapshot()
	return res, nil
}

// engineCheckpoint snapshots the running state into a warm checkpoint.
func engineCheckpoint(res *Result, plan roundPlan, st *stopState, spentBefore float64) *Checkpoint {
	beliefs := make([]*belief.Dist, len(res.Beliefs))
	for i, b := range res.Beliefs {
		beliefs[i] = b.Clone()
	}
	return &Checkpoint{
		Version:     CheckpointVersion,
		Beliefs:     beliefs,
		BudgetSpent: spentBefore + res.BudgetSpent,
		Selection:   plan.cache(),
		StopVotes:   st.snapshot(),
	}
}

// uniformPlan is today's Algorithm 1/3 purchasing: pick up to K checking
// queries, send each to every expert. The greedy selector is
// transparently upgraded to the incremental engine: picks are provably
// identical (see taskselect's equivalence tests), but cached per-task
// gains survive between rounds and only the tasks whose beliefs a round
// updates are re-scanned.
type uniformPlan struct {
	k       int
	ce      crowd.Crowd
	sel     taskselect.Selector
	state   *taskselect.SelectionState
	perPick float64
}

// checkCosts rejects a cost model that prices any expert's answer at
// zero, below zero, or NaN: the plans divide the budget by these prices,
// and a NaN one never lets the remaining budget reach zero.
func checkCosts(cost func(w crowd.Worker) float64, ce crowd.Crowd) error {
	for _, w := range ce {
		if c := cost(w); !(c > 0) {
			return fmt.Errorf("pipeline: worker %s costs %v per answer, need a positive price", w.ID, c)
		}
	}
	return nil
}

// newUniformPlan builds the plan; warm, when non-nil, primes the
// incremental selector's gain cache (a mismatched cache degrades to a
// cold first scan, never to wrong picks).
func newUniformPlan(cfg Config, ce crowd.Crowd, warm *taskselect.SelectionCache) (roundPlan, error) {
	sel := cfg.Selector
	var state *taskselect.SelectionState
	switch v := sel.(type) {
	case taskselect.Greedy:
		state = taskselect.NewSelectionState(v.Workers)
		sel = state
	case *taskselect.SelectionState:
		state = v
	}
	if state != nil && warm != nil {
		// An invalid cache runs cold; run rejects the other flavor's.
		_ = state.RestoreCache(warm)
	}
	perPick := float64(len(ce))
	if cfg.Cost != nil {
		if err := checkCosts(cfg.Cost, ce); err != nil {
			return nil, err
		}
		var per float64
		for _, w := range ce {
			per += cfg.Cost(w)
		}
		perPick = per
	}
	return &uniformPlan{k: cfg.K, ce: ce, sel: sel, state: state, perPick: perPick}, nil
}

func (u *uniformPlan) plan(ctx context.Context, p taskselect.Problem, remaining float64) ([]purchase, []taskselect.Candidate, error) {
	// Algorithm 1 line 8 stops only when even one more pick is
	// unaffordable: a pick costs one answer from every expert, so the
	// final round is clamped to the picks the remaining budget funds
	// rather than stranding a full round's worth of budget.
	k := u.k
	if afford := int((remaining + 1e-9) / u.perPick); afford < k {
		k = afford
	}
	if k < 1 {
		return nil, nil, nil // B < |CE|: not even a single pick is fundable
	}
	picks, err := u.sel.Select(ctx, p, k)
	if err != nil {
		return nil, nil, err
	}
	byTask := make(map[int][]int)
	for _, c := range picks {
		byTask[c.Task] = append(byTask[c.Task], c.Fact)
	}
	tasks := make([]int, 0, len(byTask))
	for t := range byTask {
		tasks = append(tasks, t)
	}
	sort.Ints(tasks)
	buys := make([]purchase, 0, len(tasks))
	for _, t := range tasks {
		buys = append(buys, purchase{task: t, locals: byTask[t], panel: u.ce})
	}
	return buys, picks, nil
}

func (u *uniformPlan) invalidate(tasks []int) {
	if u.state != nil {
		u.state.Invalidate(tasks...)
	}
}

func (u *uniformPlan) cache() *taskselect.SelectionCache {
	if u.state != nil {
		return u.state.ExportCache()
	}
	return nil
}

func (u *uniformPlan) flavor() string { return flavorUniform }

func (u *uniformPlan) stats() taskselect.SelectStats {
	if u.state != nil {
		return u.state.Stats()
	}
	return taskselect.SelectStats{}
}

// costPlan is the §III-D cost extension's purchasing: each round greedily
// buys individual (query, expert) answer units by gain-per-cost until the
// round's chunk of the budget is spent. The chunk is K times the mean
// expert answer price, mirroring the K·|CE| cadence of the uniform
// design. Selection runs on the incremental AssignState, pick-identical
// to a cold CostGreedy scan.
type costPlan struct {
	k        int
	cost     func(w crowd.Worker) float64
	minCost  float64
	meanCost float64
	state    *taskselect.AssignState
}

// newCostPlan builds the plan, validating the cost model against the
// expert crowd; warm primes the unit-gain cache as in newUniformPlan.
func newCostPlan(cfg Config, ce crowd.Crowd, warm *taskselect.SelectionCache) (roundPlan, error) {
	if len(ce) == 0 {
		// Guard here, not only in the callers: meanCost below divides by
		// len(ce), and a NaN mean would silently poison the per-round
		// budget chunking instead of failing the run.
		return nil, taskselect.ErrNoExperts
	}
	cost := cfg.Cost
	if cost == nil {
		cost = func(crowd.Worker) float64 { return 1 }
	}
	if err := checkCosts(cost, ce); err != nil {
		return nil, err
	}
	var minCost, meanCost float64
	for i, w := range ce {
		c := cost(w)
		if i == 0 || c < minCost {
			minCost = c
		}
		meanCost += c
	}
	meanCost /= float64(len(ce))
	state := taskselect.NewAssignState(cost, 0, 0)
	if warm != nil {
		_ = state.RestoreCache(warm)
	}
	return &costPlan{k: cfg.K, cost: cost, minCost: minCost, meanCost: meanCost, state: state}, nil
}

func (c *costPlan) plan(ctx context.Context, p taskselect.Problem, remaining float64) ([]purchase, []taskselect.Candidate, error) {
	// Stop only when even the cheapest single answer is unaffordable, and
	// clamp the chunk to the remaining budget so the final round spends
	// what is left instead of stranding it — the cost-weighted mirror of
	// uniformPlan's affordability clamp.
	if remaining < c.minCost {
		return nil, nil, nil
	}
	chunk := float64(c.k) * c.meanCost
	if chunk > remaining {
		chunk = remaining
	}
	units, err := c.state.SelectAssign(ctx, p, chunk)
	if err != nil {
		return nil, nil, err
	}
	if len(units) == 0 {
		return nil, nil, nil
	}
	// Group the units per (task, worker): each group is one answer set,
	// applied as its own single-member family (workers answer
	// independently given the observation, so sequential updates are
	// exact). Units arrive sorted by (task, fact, worker), so each
	// group's facts are ascending, as relabelFamily expects.
	type key struct {
		task   int
		worker string
	}
	groups := make(map[key][]int) // local facts
	workers := make(map[key]crowd.Worker)
	picks := make([]taskselect.Candidate, 0, len(units))
	for _, u := range units {
		k := key{u.Task, u.Worker.ID}
		groups[k] = append(groups[k], u.Fact)
		workers[k] = u.Worker
		picks = append(picks, taskselect.Candidate{Task: u.Task, Fact: u.Fact})
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].task != keys[j].task {
			return keys[i].task < keys[j].task
		}
		return keys[i].worker < keys[j].worker
	})
	buys := make([]purchase, 0, len(keys))
	for _, k := range keys {
		buys = append(buys, purchase{task: k.task, locals: groups[k], panel: crowd.Crowd{workers[k]}})
	}
	return buys, picks, nil
}

func (c *costPlan) invalidate(tasks []int) { c.state.Invalidate(tasks...) }

func (c *costPlan) cache() *taskselect.SelectionCache { return c.state.ExportCache() }

func (c *costPlan) flavor() string { return flavorCostAware }

func (c *costPlan) stats() taskselect.SelectStats { return c.state.Stats() }
