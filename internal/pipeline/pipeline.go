// Package pipeline implements the hierarchical crowdsourcing loop of the
// paper's Algorithms 1 and 3: split the crowd, initialize the belief state
// from the preliminary workers' labels, then repeatedly select a checking
// query set, collect the expert answer family, and apply the Bayesian
// belief update until the checking budget runs out. It also carries the
// §III-D extensions: a per-worker cost model, a multi-tier hierarchy, and
// the Abraham et al. [38] per-fact stopping rule.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/rngutil"
	"hcrowd/internal/taskselect"
)

// AnswerSource supplies expert answers for selected checking queries. The
// experiments use Simulated; a live deployment would implement this
// against a crowdsourcing platform.
type AnswerSource interface {
	// Answers collects one answer per expert for each global fact index.
	Answers(experts crowd.Crowd, facts []int) (crowd.AnswerFamily, error)
}

// Simulated draws answers from the ground truth under the accuracy-rate
// error model, which is exactly the paper's offline-evaluation protocol
// ("the repeated task selection and answer collection can be regarded as
// a simulated online crowdsourcing framework").
type Simulated struct {
	Rng   *rand.Rand
	Truth crowd.Truth
}

// Answers implements AnswerSource.
func (s Simulated) Answers(experts crowd.Crowd, facts []int) (crowd.AnswerFamily, error) {
	if s.Rng == nil || s.Truth == nil {
		return nil, errors.New("pipeline: Simulated needs Rng and Truth")
	}
	return crowd.SimulateAnswerFamily(s.Rng, experts, facts, s.Truth), nil
}

// StopRule is the sequential stopping rule of Abraham et al. [38]: a fact
// stops being re-checked once |V_yes - V_no| > C·sqrt(t) − Eps·t, where t
// is the number of expert answers collected for the fact so far.
type StopRule struct {
	C   float64
	Eps float64
}

// Stopped evaluates the rule for a fact with the given vote counts.
func (r StopRule) Stopped(yes, no int) bool {
	t := float64(yes + no)
	if t == 0 {
		return false
	}
	return math.Abs(float64(yes-no)) > r.C*math.Sqrt(t)-r.Eps*t
}

// Config drives one hierarchical crowdsourcing run.
type Config struct {
	// K is the number of checking queries selected per round (Algorithm 2
	// input). Required, >= 1.
	K int
	// Budget B is the total number of expert answers available; each round
	// consumes |T|·|CE| (Algorithm 1 line 7), or the cost-weighted
	// equivalent when Cost is set.
	Budget float64
	// Selector picks the checking query set; defaults to the paper's
	// greedy approximation.
	Selector taskselect.Selector
	// Init aggregates the preliminary answers into per-fact posteriors for
	// belief initialization; defaults to MV (the paper's Equation 15/16
	// vote-share product). The experiments of Figure 6 swap this.
	Init aggregate.Aggregator
	// Source provides the expert answers. Required.
	Source AnswerSource
	// Cost optionally prices one answer from a worker (the §III-D
	// cost-aware extension); nil means unit cost.
	Cost func(w crowd.Worker) float64
	// Stop optionally freezes facts per the stopping rule.
	Stop *StopRule
	// UniformInit forces a uniform belief (ignoring Init and the
	// preliminary answers); used by the NO-HC baseline of Figure 7.
	UniformInit bool
	// PriorCoupling injects the intra-task correlation structure into the
	// initial beliefs as a Markov-chain prior (Definition 6 takes the
	// observations' joint distribution as a given input; Equation 15's
	// plain product form discards it). Zero means no prior;
	// (*dataset.Dataset).EstimateCoupling recovers the value from the
	// preliminary answers.
	PriorCoupling float64
	// Prior, when set, overrides PriorCoupling with an arbitrary
	// structural joint prior per task width — e.g. belief.OneHotPrior for
	// tasks derived from single-label multi-class classification (§II-A).
	Prior func(numFacts int) (*belief.Dist, error)
	// MaxRounds caps the number of rounds as a safety net; 0 means
	// unlimited (the budget is the binding constraint).
	MaxRounds int
	// Journal, when set, is the round hook: after every completed round
	// the engine hands it the round number (counting from 1 within this
	// run) and the round's warm checkpoint — cloned beliefs, cumulative
	// spend, the incremental selector's gain cache and the stopping
	// rule's vote counts. The checkpoint is immutable and the hook may
	// keep it. A non-nil error ABORTS THE RUN: a write-ahead journal that
	// cannot commit a round must stop the loop rather than let the
	// in-memory state advance past the log. Advisory hooks (a checkpoint
	// file writer) return nil. It runs synchronously on the loop.
	Journal func(round int, ck *Checkpoint) error
	// From, when set, resumes the job from a checkpoint instead of
	// initializing fresh beliefs: Budget is then the job's total budget,
	// of which the checkpoint's spend is already consumed, and the
	// initialization settings (Init, UniformInit, Prior, PriorCoupling)
	// are ignored — the checkpointed beliefs are the state. A version-1
	// checkpoint resumes warm: its selection cache skips the initial
	// full gain scan and its stop votes restore the frozen facts. A
	// checkpoint written by the other loop flavor is rejected (see
	// Checkpoint.CheckFlavor).
	From *Checkpoint
	// Metrics, when set, receives one RoundMetrics per completed round.
	// Purely observational: attaching a sink never changes the run's
	// picks, answers, spend or labels.
	Metrics MetricsSink
	// Admit, when set, turns the closed loop into an event-driven round
	// scheduler: the engine polls the source at every round boundary and
	// admits the returned fragments — growing the dataset, beliefs,
	// stop-rule state and selection caches in place — before planning the
	// next round. When the budget runs dry the engine blocks on the
	// source instead of finishing, and only ends once the source reports
	// the stream finished (empty blocking poll).
	Admit AdmissionSource
	// BudgetWindow is the rolling-budget refill of the streaming design:
	// every admitted fragment adds this much to the remaining budget, on
	// top of the fixed Budget. Meaningful only with Admit set; must not
	// be negative.
	BudgetWindow float64
}

// RoundStats records one checking round for the experiment curves.
type RoundStats struct {
	Round       int
	Picks       []taskselect.Candidate
	BudgetSpent float64 // cumulative
	Quality     float64 // Σ_t Q(F_t) after the round's update
	Accuracy    float64 // fraction of facts whose MAP label is correct
}

// Result is the outcome of a run.
type Result struct {
	Beliefs  []*belief.Dist
	Labels   []bool // final labels, global fact order (Equation 20)
	Rounds   []RoundStats
	Quality  float64
	Accuracy float64
	// InitQuality/InitAccuracy describe the belief right after
	// initialization, before any checking.
	InitQuality  float64
	InitAccuracy float64
	BudgetSpent  float64
	// Overspent is the total spend beyond the authorized budget across
	// this engine run. The plans clamp purchases to the remaining budget,
	// but a source delivering more answers than requested — or a
	// floating-point epsilon in the affordability clamp — can still push a
	// round's charge past what remained; the engine floors the remaining
	// budget at zero and records the excess here instead of letting it
	// silently fund extra rounds.
	Overspent float64
	// TasksAdmitted counts the tasks the run admitted through
	// Config.Admit; 0 for a closed-loop run.
	TasksAdmitted int

	// selCache and stopVotes carry the finished run's warm-resume state
	// into NewCheckpoint; nil when the run used no incremental selector
	// or no stopping rule.
	selCache  *taskselect.SelectionCache
	stopVotes *StopVotes
}

// Run executes Algorithm 3 (or Algorithm 1 when cfg.Selector is
// taskselect.Exact) on the dataset.
func Run(ctx context.Context, ds *dataset.Dataset, cfg Config) (*Result, error) {
	return run(ctx, ds, cfg, newUniformPlan)
}

// RunCostAware executes the §III-D cost extension end to end: instead of
// sending every selected query to every expert, each round greedily buys
// individual (query, expert) answer units by gain-per-cost until the
// round's chunk of the budget is spent. cfg.Cost prices one answer (unit
// cost when nil); cfg.K scales the per-round chunk to K times the mean
// expert answer price, mirroring the K·|CE| cadence of the uniform
// design. It runs on the same round engine as Run — the budget is
// charged for answers actually received, cfg.Stop freezes settled facts
// out of the assignment selection, and unit gains are cached between
// rounds (see taskselect.AssignState).
func RunCostAware(ctx context.Context, ds *dataset.Dataset, cfg Config) (*Result, error) {
	return run(ctx, ds, cfg, newCostPlan)
}

// planFunc builds one loop flavor's purchasing plan over the expert crowd
// ce; warm, when non-nil, primes its selection cache.
type planFunc func(cfg Config, ce crowd.Crowd, warm *taskselect.SelectionCache) (roundPlan, error)

// run is the one checking-loop core behind Run and RunCostAware: validate
// the inputs, take the beliefs from cfg.From or the configured
// initializer, build the stop state and the plan, and run the engine.
// A resumed run's budget is clamped to what remains and its report reads
// cumulatively from the job's start.
func run(ctx context.Context, ds *dataset.Dataset, cfg Config, newPlan planFunc) (*Result, error) {
	if err := prepare(ds, &cfg); err != nil {
		return nil, err
	}
	ce, _ := ds.Split()
	if len(ce) == 0 {
		return nil, errors.New("pipeline: no expert workers above theta")
	}
	var beliefs []*belief.Dist
	var warm *taskselect.SelectionCache
	var votes *StopVotes
	var spentBefore float64
	if c := cfg.From; c != nil {
		if err := c.matches(ds); err != nil {
			return nil, err
		}
		cfg.Budget = math.Max(cfg.Budget-c.BudgetSpent, 0)
		beliefs = make([]*belief.Dist, len(c.Beliefs))
		for i, b := range c.Beliefs {
			beliefs[i] = b.Clone()
		}
		warm, votes, spentBefore = c.Selection, c.StopVotes, c.BudgetSpent
	} else {
		var err error
		if beliefs, err = initBeliefs(ds, cfg); err != nil {
			return nil, err
		}
	}
	return runWith(ctx, ds, cfg, ce, beliefs, newPlan, warm, votes, spentBefore)
}

// runWith runs the checking loop from set-up beliefs: it builds the stop
// state and the plan (warm from the checkpoint's selection cache and stop
// votes when resuming), runs the engine over the experts ce, and folds
// spentBefore back into the result.
func runWith(ctx context.Context, ds *dataset.Dataset, cfg Config, ce crowd.Crowd, beliefs []*belief.Dist, newPlan planFunc, warm *taskselect.SelectionCache, votes *StopVotes, spentBefore float64) (*Result, error) {
	st, err := newStopState(ds, cfg.Stop, votes)
	if err != nil {
		return nil, err
	}
	// The plan is created here — never stored in cfg — so each run starts
	// from its own selection state.
	plan, err := newPlan(cfg, ce, warm)
	if err != nil {
		return nil, err
	}
	if err := cfg.From.CheckFlavor(plan.flavor() == flavorCostAware); err != nil {
		return nil, err
	}
	res, err := runEngine(ctx, ds, cfg, ce, beliefs, plan, st, spentBefore)
	if err != nil {
		return nil, err
	}
	return accumulate(res, spentBefore), nil
}

// prepare validates the inputs every entry point shares and fills the
// Selector default (initBeliefs fills Init's).
func prepare(ds *dataset.Dataset, cfg *Config) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	if cfg.K < 1 {
		return fmt.Errorf("pipeline: K = %d, need >= 1", cfg.K)
	}
	if cfg.Source == nil {
		return errors.New("pipeline: Config.Source is required")
	}
	if cfg.Selector == nil {
		cfg.Selector = taskselect.Greedy{}
	}
	return nil
}

// InitBeliefs builds one belief per task. With uniform == true every task
// starts at the uniform distribution (the NO-HC baseline); otherwise the
// aggregator runs on the preliminary matrix and each task belief is the
// independent product of its facts' posteriors (Equation 15).
func InitBeliefs(ds *dataset.Dataset, init aggregate.Aggregator, uniform bool) ([]*belief.Dist, error) {
	return initBeliefs(ds, Config{Init: init, UniformInit: uniform})
}

// initBeliefs is the one belief initializer, driven by cfg's
// initialization settings: Init aggregates the preliminary answers (MV
// when nil) unless UniformInit is set, and the structural joint prior —
// Prior, or else a Markov chain of coupling PriorCoupling when non-zero —
// is blended into every task belief (or used alone when uniform).
func initBeliefs(ds *dataset.Dataset, cfg Config) ([]*belief.Dist, error) {
	prior := cfg.Prior
	if prior == nil && cfg.PriorCoupling != 0 {
		prior = func(m int) (*belief.Dist, error) { return belief.MarkovPrior(m, cfg.PriorCoupling) }
	}
	init := cfg.Init
	if init == nil {
		init = aggregate.MV{}
	}
	beliefs := make([]*belief.Dist, len(ds.Tasks))
	priors := make(map[int]*belief.Dist) // by fact count
	priorFor := func(m int) (*belief.Dist, error) {
		if prior == nil {
			return nil, nil
		}
		if d, ok := priors[m]; ok {
			return d, nil
		}
		d, err := prior(m)
		if err != nil {
			return nil, err
		}
		priors[m] = d
		return d, nil
	}
	if cfg.UniformInit {
		for t, facts := range ds.Tasks {
			prior, err := priorFor(len(facts))
			if err != nil {
				return nil, err
			}
			if prior != nil {
				beliefs[t] = prior.Clone()
				continue
			}
			d, err := belief.New(len(facts))
			if err != nil {
				return nil, err
			}
			beliefs[t] = d
		}
		return beliefs, nil
	}
	res, err := init.Aggregate(ds.Prelim)
	if err != nil {
		return nil, fmt.Errorf("pipeline: init aggregation: %w", err)
	}
	for t, facts := range ds.Tasks {
		marg := make([]float64, len(facts))
		for j, f := range facts {
			marg[j] = res.PTrue[f]
		}
		prior, err := priorFor(len(facts))
		if err != nil {
			return nil, err
		}
		d, err := belief.FromMarginalsWithPrior(marg, prior)
		if err != nil {
			return nil, err
		}
		beliefs[t] = d
	}
	return beliefs, nil
}

// relabelFamily maps a family's global fact indices back to task-local
// ones so the belief update can consume it.
func relabelFamily(fam crowd.AnswerFamily, globals, locals []int) (crowd.AnswerFamily, error) {
	g2l := make(map[int]int, len(globals))
	for i, g := range globals {
		g2l[g] = locals[i]
	}
	out := make(crowd.AnswerFamily, len(fam))
	for i, as := range fam {
		facts := make([]int, len(as.Facts))
		vals := make([]bool, len(as.Facts))
		for j, g := range as.Facts {
			l, ok := g2l[g]
			if !ok {
				return nil, fmt.Errorf("pipeline: answer for unrequested fact %d", g)
			}
			facts[j] = l
			vals[j] = as.Values[j]
		}
		// Local facts of one task preserve ascending order under the
		// global-to-local map, so no re-sort is needed.
		out[i] = crowd.AnswerSet{Worker: as.Worker, Facts: facts, Values: vals}
		if err := out[i].Validate(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// totalQuality sums Q(F_t) over all tasks (the evaluation's "quality").
func totalQuality(beliefs []*belief.Dist) float64 {
	var q float64
	for _, d := range beliefs {
		q += d.Quality()
	}
	return q
}

// totalAccuracy is the fraction of all facts whose MAP label matches the
// ground truth.
func totalAccuracy(ds *dataset.Dataset, beliefs []*belief.Dist) (float64, error) {
	correct, total := 0, 0
	for t, d := range beliefs {
		labels := d.Labels()
		truth := ds.TaskTruth(t)
		if len(labels) != len(truth) {
			return 0, fmt.Errorf("pipeline: task %d labels/truth mismatch", t)
		}
		for j := range labels {
			total++
			if labels[j] == truth[j] {
				correct++
			}
		}
	}
	if total == 0 {
		return 0, errors.New("pipeline: no facts")
	}
	return float64(correct) / float64(total), nil
}

// finalLabels flattens the per-task MAP labels into global fact order
// (Equation 20).
func finalLabels(ds *dataset.Dataset, beliefs []*belief.Dist) []bool {
	out := make([]bool, ds.NumFacts())
	for t, d := range beliefs {
		labels := d.Labels()
		for j, f := range ds.Tasks[t] {
			out[f] = labels[j]
		}
	}
	return out
}

// NewSimulated builds the standard simulated answer source for a dataset.
func NewSimulated(seed int64, ds *dataset.Dataset) Simulated {
	return Simulated{Rng: rngutil.New(seed), Truth: ds.TruthFn()}
}
