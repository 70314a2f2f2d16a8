package hcrowd

import (
	"context"
	"io"
	"math/rand"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
	"hcrowd/internal/taskselect"
)

// Core model types, aliased from the internal packages so their methods
// are part of the public API.
type (
	// Worker is a crowdsourcing worker with a private accuracy rate
	// Pr_cr ∈ [0.5, 1].
	Worker = crowd.Worker
	// Crowd is a worker pool; Split(θ) divides it into experts and
	// preliminary workers (Definition 1).
	Crowd = crowd.Crowd
	// AnswerSet is one worker's Yes/No answers to a query set
	// (Definition 3).
	AnswerSet = crowd.AnswerSet
	// AnswerFamily is the answer sets of a whole crowd for one query set.
	AnswerFamily = crowd.AnswerFamily
	// Truth adapts ground-truth lookups for the answer simulator.
	Truth = crowd.Truth
	// HeterogeneousConfig parameterizes sampled worker pools.
	HeterogeneousConfig = crowd.HeterogeneousConfig

	// Belief is a joint distribution over the 2^m observations of an
	// m-fact task; quality is Q(F) = −H(O) (Definition 2).
	Belief = belief.Dist

	// Dataset bundles ground truth, task grouping, the worker pool and
	// the preliminary answer matrix.
	Dataset = dataset.Dataset
	// Matrix is a sparse fact × worker answer matrix.
	Matrix = dataset.Matrix
	// SentiConfig parameterizes the synthetic sentiment-like generator.
	SentiConfig = dataset.SentiConfig

	// Config drives one hierarchical crowdsourcing run (Algorithm 3).
	Config = pipeline.Config
	// Result is the outcome of a run, including the per-round trace.
	Result = pipeline.Result
	// RoundStats records one checking round.
	RoundStats = pipeline.RoundStats
	// StopRule is the optional per-fact stopping rule of Abraham et
	// al. [38].
	StopRule = pipeline.StopRule
	// TierConfig describes one tier of the multi-level hierarchy
	// extension.
	TierConfig = pipeline.TierConfig
	// AnswerSource supplies expert answers; implement it to connect a
	// live crowdsourcing platform, or use NewSimulatedSource.
	AnswerSource = pipeline.AnswerSource

	// Fragment is a self-contained batch of new tasks for streaming
	// admission: its own ground truth, task grouping and preliminary
	// answers, folded into a running job through Config.Admit (or POST
	// /tasks against a streaming session).
	Fragment = dataset.Fragment
	// FragmentAnswer is one preliminary answer inside a Fragment,
	// addressed by fragment-local fact index and worker ID.
	FragmentAnswer = dataset.FragmentAnswer
	// AdmissionSource feeds fragments into a running engine at round
	// boundaries, turning the closed checking loop into an event-driven
	// scheduler; set it via Config.Admit together with a positive
	// Config.BudgetWindow.
	AdmissionSource = pipeline.AdmissionSource
	// ScheduleSource is the deterministic AdmissionSource used by the
	// streaming experiments: batch i is handed to the engine on the i-th
	// round-boundary poll.
	ScheduleSource = pipeline.ScheduleSource

	// RoundMetrics is one checking round's observability record: wall
	// time, queries bought, answers requested vs received, spend, quality
	// movement and selector cache statistics. Purely observational —
	// attaching a sink never changes a run's results.
	RoundMetrics = pipeline.RoundMetrics
	// MetricsSink receives one RoundMetrics per completed round; set it
	// via Config.Metrics.
	MetricsSink = pipeline.MetricsSink
	// MetricsRecorder is the in-memory MetricsSink: it appends every
	// record and hands back the ordered slice via Rounds(). The zero
	// value is ready to use.
	MetricsRecorder = pipeline.MetricsRecorder
	// MultiMetrics fans records out to several sinks (nils are skipped).
	MultiMetrics = pipeline.MultiMetrics

	// SelectStats counts the selection engine's work during a round:
	// Select calls, CondEntropy evaluations, task re-scans and cache
	// reuses.
	SelectStats = taskselect.SelectStats

	// Aggregator is a label-aggregation algorithm (truth inference).
	Aggregator = aggregate.Aggregator
	// AggregateResult is an aggregation outcome: per-fact posteriors and
	// estimated worker accuracies.
	AggregateResult = aggregate.Result

	// Selector chooses checking queries; Greedy is the paper's
	// Algorithm 2.
	Selector = taskselect.Selector
	// Candidate identifies one checking query (task, local fact).
	Candidate = taskselect.Candidate
	// Problem is a selection instance (beliefs + experts).
	Problem = taskselect.Problem
)

// Run executes the hierarchical crowdsourcing loop (Algorithm 3, or
// Algorithm 1 when cfg.Selector is ExactSelector()) on the dataset.
func Run(ctx context.Context, ds *Dataset, cfg Config) (*Result, error) {
	return pipeline.Run(ctx, ds, cfg)
}

// RunCostAware executes the §III-D cost extension: each round buys
// individual (query, expert) answer units greedily by gain-per-cost
// instead of sending every query to every expert.
func RunCostAware(ctx context.Context, ds *Dataset, cfg Config) (*Result, error) {
	return pipeline.RunCostAware(ctx, ds, cfg)
}

// RunTiers executes the multi-level hierarchy extension: sequential
// expert tiers each with their own budget (§III-D).
func RunTiers(ctx context.Context, ds *Dataset, base Config, tiers []TierConfig) (*Result, error) {
	return pipeline.RunTiers(ctx, ds, base, tiers)
}

// SplitTiers divides a crowd into n expert tiers above theta plus the
// preliminary remainder, sharing the budget equally.
func SplitTiers(c Crowd, theta float64, n int, budget float64) ([]TierConfig, Crowd, error) {
	return pipeline.SplitTiers(c, theta, n, budget)
}

// Checkpoint captures a run's resumable state: the beliefs and budget
// spent, plus the optional warm sections (incremental selection cache,
// stopping-rule votes). Persist it between rounds of a long labeling job
// — the Config.Journal round hook receives one per round — and continue
// after a restart by setting it as Config.From and calling the run
// function that wrote it (Run or RunCostAware; the other one rejects a
// checkpoint carrying a selection cache).
type Checkpoint = pipeline.Checkpoint

// SelectionCache is the serialized round-start gain state of an
// incremental selection engine, carried inside a Checkpoint so a resumed
// loop re-scans no unchanged task.
type SelectionCache = taskselect.SelectionCache

// StopVotes is the stopping rule's checkpointed per-fact vote counts.
type StopVotes = pipeline.StopVotes

// NewCheckpoint snapshots a result's state for a later resume through
// Config.From.
func NewCheckpoint(res *Result) *Checkpoint { return pipeline.NewCheckpoint(res) }

// ReadCheckpoint deserializes a checkpoint written by (*Checkpoint).Write.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) { return pipeline.ReadCheckpoint(r) }

// NewSimulatedSource answers checking queries from the dataset's ground
// truth under each expert's accuracy — the paper's offline evaluation
// protocol.
func NewSimulatedSource(seed int64, ds *Dataset) AnswerSource {
	return pipeline.NewSimulated(seed, ds)
}

// InitBeliefs aggregates the preliminary answers and builds one belief
// per task (Equation 15 product form); uniform = true skips the answers
// and starts every task at the uniform distribution.
func InitBeliefs(ds *Dataset, init Aggregator, uniform bool) ([]*Belief, error) {
	return pipeline.InitBeliefs(ds, init, uniform)
}

// NewBelief returns the uniform belief over m facts.
func NewBelief(m int) (*Belief, error) { return belief.New(m) }

// BeliefFromJoint builds a belief from an explicit joint distribution of
// length 2^m.
func BeliefFromJoint(p []float64) (*Belief, error) { return belief.FromJoint(p) }

// BeliefFromMarginals builds the independent-product belief of
// Equation 15 from per-fact posteriors.
func BeliefFromMarginals(pTrue []float64) (*Belief, error) {
	return belief.FromMarginals(pTrue)
}

// MarkovPrior returns the chain-structured joint prior with the given
// copy probability; it carries the intra-task correlations the plain
// product initialization discards (Definition 6 takes the joint
// distribution as an input of the problem).
func MarkovPrior(m int, couple float64) (*Belief, error) {
	return belief.MarkovPrior(m, couple)
}

// BeliefFromMarginalsWithPrior blends per-fact posteriors with a
// structural joint prior: P(o) ∝ prior(o) · Π_f m_f(o ⊨ f).
func BeliefFromMarginalsWithPrior(pTrue []float64, prior *Belief) (*Belief, error) {
	return belief.FromMarginalsWithPrior(pTrue, prior)
}

// CondEntropy computes H(O | AS^T_CE) (Equation 34), the quantity the
// checking-task selection minimizes.
func CondEntropy(d *Belief, experts Crowd, facts []int) (float64, error) {
	return taskselect.CondEntropy(d, experts, facts)
}

// QualityGain computes the expected quality improvement ΔQ(F|T) =
// H(O) − H(O | AS^T_CE) of Theorem 1.
func QualityGain(d *Belief, experts Crowd, facts []int) (float64, error) {
	return taskselect.QualityGain(d, experts, facts)
}

// GreedySelector returns the paper's Algorithm 2: (1−1/e)-approximate
// greedy selection.
func GreedySelector() Selector { return taskselect.Greedy{} }

// SelectionState is the incremental variant of GreedySelector: identical
// picks round for round, but the per-task round-start gains are cached
// between Select calls and recomputed only for tasks the caller has
// Invalidated, so a steady-state round costs O(touched tasks) instead of
// a full O(N·m) conditional-entropy scan. Run and its variants wire one
// in automatically when cfg.Selector is GreedySelector() (or nil);
// construct one with IncrementalSelector to drive a custom checking loop.
type SelectionState = taskselect.SelectionState

// IncrementalSelector returns a fresh incremental greedy selection
// engine; workers bounds the goroutines of the invalidation re-scan
// (<= 1 means serial). After mutating a task's belief, call
// Invalidate(task) before the next Select.
func IncrementalSelector(workers int) *SelectionState {
	return taskselect.NewSelectionState(workers)
}

// TaskAssign is one purchased answer unit of the cost-aware design: a
// specific expert answering a specific fact of a specific task.
type TaskAssign = taskselect.TaskAssign

// AssignSelector chooses assignment units under a budget; the cost-aware
// loop's counterpart of Selector.
type AssignSelector = taskselect.AssignSelector

// AssignState is the incremental assignment engine behind RunCostAware:
// unit purchases identical to the stateless gain-per-cost greedy, with
// per-task unit-gain tables cached between SelectAssign calls and
// recomputed only for Invalidated tasks.
type AssignState = taskselect.AssignState

// IncrementalAssignSelector returns a fresh incremental cost-aware
// assignment engine. cost prices one answer from a worker (nil = 1),
// maxAssignsPerTask caps the answer variables accumulated per task
// (<= 0 = 12), workers bounds the re-scan goroutines (<= 1 = serial).
// After mutating a task's belief, call Invalidate(task) before the next
// SelectAssign.
func IncrementalAssignSelector(cost func(w Worker) float64, maxAssignsPerTask, workers int) *AssignState {
	return taskselect.NewAssignState(cost, maxAssignsPerTask, workers)
}

// ExactSelector returns the brute-force OPT selector (exponential; used
// by the Figure 5 and Table III experiments).
func ExactSelector() Selector { return taskselect.Exact{} }

// RandomSelector returns the uniform-random baseline selector.
func RandomSelector(seed int64) Selector {
	return taskselect.Random{Rng: rngutil.New(seed)}
}

// MaxEntropySelector returns the marginal-entropy heuristic (the trivial
// optimum of the single-query single-worker special case).
func MaxEntropySelector() Selector { return taskselect.MaxEntropy{} }

// Aggregators returns every baseline aggregation algorithm in the
// paper's order: MV, DS, ZC, GLAD, CRH, BWA, BCC, EBCC.
func Aggregators(seed int64) []Aggregator { return aggregate.Registry(seed) }

// AggregatorByName resolves one baseline by its paper name.
func AggregatorByName(name string, seed int64) (Aggregator, error) {
	return aggregate.ByName(name, seed)
}

// AggregatorMust is AggregatorByName for statically known names; it
// panics on an unknown name.
func AggregatorMust(name string, seed int64) Aggregator {
	a, err := aggregate.ByName(name, seed)
	if err != nil {
		panic(err)
	}
	return a
}

// Categorical (multi-class) truth inference: the native Dawid-Skene
// setting §II-A's one-hot construction decomposes.
type (
	// CatMatrix is a sparse items × workers categorical answer matrix.
	CatMatrix = dataset.CatMatrix
	// CatResult is a multi-class inference outcome (per-item class
	// posteriors).
	CatResult = aggregate.CatResult
	// CatAggregator infers multi-class truth from a CatMatrix.
	CatAggregator = aggregate.CatAggregator
)

// NewCatMatrix creates an empty categorical answer matrix.
func NewCatMatrix(numItems, numClasses int, workerIDs []string) (*CatMatrix, error) {
	return dataset.NewCatMatrix(numItems, numClasses, workerIDs)
}

// CatMajorityVote returns multi-class majority voting.
func CatMajorityVote() CatAggregator { return aggregate.CatMV{} }

// CatDawidSkene returns multi-class Dawid-Skene (K×K confusion EM).
func CatDawidSkene() CatAggregator { return aggregate.NewCatDS() }

// CatFromOneHot reconstructs a categorical matrix from one-hot binary
// answers (the inverse of §II-A's construction).
func CatFromOneHot(m *Matrix, tasks [][]int) (*CatMatrix, error) {
	return dataset.CatFromOneHot(m, tasks)
}

// CatInitializer adapts a categorical aggregator into a pipeline belief
// initializer for one-hot datasets; pair with OneHotPrior.
func CatInitializer(cat CatAggregator, tasks [][]int) Aggregator {
	return aggregate.CatInit{Cat: cat, Tasks: tasks}
}

// ExtraAggregators returns the additional MV variants the paper's
// introduction cites (MV-Freq, MV-Beta of Sheng et al. [15]), outside the
// eight evaluated baselines.
func ExtraAggregators() []Aggregator { return aggregate.Extras() }

// AggregatorNames lists the baseline names in registry order.
func AggregatorNames() []string { return aggregate.Names() }

// MajorityVote returns the MV aggregator (Equation 5).
func MajorityVote() Aggregator { return aggregate.MV{} }

// EBCC returns the enhanced Bayesian classifier combination aggregator,
// the initializer the paper uses in its main experiments.
func EBCC(seed int64) Aggregator { return aggregate.NewEBCC(seed) }

// DefaultSentiConfig matches the paper's dataset shape: 1000 facts as
// 200 correlated tasks of 5, eight workers per task, θ = 0.9.
func DefaultSentiConfig() SentiConfig { return dataset.DefaultSentiConfig() }

// GenerateSentiLike produces a synthetic dataset with the paper's
// sentiment-benchmark shape (see DESIGN.md for the substitution
// rationale).
func GenerateSentiLike(seed int64, cfg SentiConfig) (*Dataset, error) {
	return dataset.SentiLike(rngutil.New(seed), cfg)
}

// GenerateWideTask produces the single wide task of the efficiency study
// (Table III).
func GenerateWideTask(seed int64, numFacts int, cfg HeterogeneousConfig, theta, alpha float64) (*Dataset, error) {
	return dataset.WideTask(rngutil.New(seed), numFacts, cfg, theta, alpha)
}

// MultiClassConfig parameterizes the one-hot multi-class workload of
// §II-A (each labeling task split into per-class binary facts).
type MultiClassConfig = dataset.MultiClassConfig

// DefaultMultiClassConfig is the multiclass example's shape.
func DefaultMultiClassConfig() MultiClassConfig { return dataset.DefaultMultiClassConfig() }

// GenerateMultiClass produces a one-hot dataset: one task per item,
// NumClasses mutually exclusive facts. Pair it with OneHotPrior via
// Config.Prior.
func GenerateMultiClass(seed int64, cfg MultiClassConfig) (*Dataset, error) {
	return dataset.MultiClass(rngutil.New(seed), cfg)
}

// OneHotPrior returns the exactly-one-true joint prior for m-class tasks.
func OneHotPrior(m int) (*Belief, error) { return belief.OneHotPrior(m) }

// ClassOf recovers per-item class labels from one-hot fact labels.
func ClassOf(labels []bool, tasks [][]int) []int { return dataset.ClassOf(labels, tasks) }

// EntityResConfig parameterizes the crowdsourced entity-resolution
// workload (blocks of records, pair-match facts, transitive ground
// truth).
type EntityResConfig = dataset.EntityResConfig

// DefaultEntityResConfig is the entityres example's shape.
func DefaultEntityResConfig() EntityResConfig { return dataset.DefaultEntityResConfig() }

// GenerateEntityRes produces an entity-resolution dataset; pair it with
// PartitionPrior so checking answers propagate through transitivity.
func GenerateEntityRes(seed int64, cfg EntityResConfig) (*Dataset, error) {
	return dataset.EntityRes(rngutil.New(seed), cfg)
}

// PartitionPrior returns the transitivity-constrained joint prior for an
// n-record entity-resolution block (uniform over set partitions).
func PartitionPrior(records int) (*Belief, error) { return belief.PartitionPrior(records) }

// PairIndex returns the fact index of record pair (i, j) within an
// n-record block, matching GenerateEntityRes's fact layout.
func PairIndex(i, j, n int) (int, error) { return belief.PairIndex(i, j, n) }

// ReadDataset deserializes a dataset written by (*Dataset).Write.
func ReadDataset(r io.Reader) (*Dataset, error) { return dataset.Read(r) }

// ReadFragment deserializes a task fragment written by (*Fragment).Write.
func ReadFragment(r io.Reader) (*Fragment, error) { return dataset.ReadFragment(r) }

// GenerateSentiFragment draws a streaming task fragment shaped like the
// dataset's generator config: numTasks new tasks with Markov-coupled
// truth and preliminary answers from ds's preliminary workers.
func GenerateSentiFragment(rng *rand.Rand, ds *Dataset, cfg SentiConfig, numTasks int) (*Fragment, error) {
	return dataset.SentiFragment(rng, ds, cfg, numTasks)
}

// ReadAnswersCSV parses a `fact,worker,value` CSV (the interchange format
// of crowdsourcing platform exports) into an answer matrix; numFacts = 0
// infers the fact space from the data.
func ReadAnswersCSV(r io.Reader, numFacts int) (*Matrix, error) {
	return dataset.ReadAnswersCSV(r, numFacts)
}

// NewCrowd samples a heterogeneous worker pool.
func NewCrowd(rng *rand.Rand, cfg HeterogeneousConfig) (Crowd, error) {
	return crowd.NewHeterogeneous(rng, cfg)
}

// DefaultCrowdConfig is the experiments' default pool shape.
func DefaultCrowdConfig() HeterogeneousConfig { return crowd.DefaultHeterogeneous() }

// EstimateAccuracies estimates worker accuracy rates from answers to
// gold sample facts (§II-A).
func EstimateAccuracies(c Crowd, gold []AnswerFamily, truth Truth) Crowd {
	return crowd.EstimateAccuracies(c, gold, truth)
}

// EstimateConfusion estimates class-conditional worker rates (TPR/TNR)
// from gold sample answers — the confusion-model generalization of the
// paper's symmetric accuracy (the "diverse accuracy rates" setting of its
// predecessor [24]). Workers with TPR/TNR set are handled natively by the
// belief updates and the selection objective.
func EstimateConfusion(c Crowd, gold []AnswerFamily, truth Truth) Crowd {
	return crowd.EstimateConfusion(c, gold, truth)
}

// NewRand returns a deterministic random source for the simulation
// helpers.
func NewRand(seed int64) *rand.Rand { return rngutil.New(seed) }
