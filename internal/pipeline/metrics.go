package pipeline

import (
	"sync"
	"time"

	"hcrowd/internal/taskselect"
)

// RoundMetrics describes one completed checking round for observability.
// It is strictly a view of work the engine did anyway — recording it
// never feeds back into selection, answer collection, or the RNG, so a
// run with a sink attached is byte-identical to one without (the
// determinism suite pins this down).
type RoundMetrics struct {
	// Round is 1-based, counting from this engine's start (a resumed run
	// restarts at 1; BudgetSpent still carries the prior spend).
	Round int `json:"round"`
	// Flavor is the plan that produced the round: "uniform" or "costaware".
	Flavor string `json:"flavor"`
	// Duration is the round's wall time: selection, answer collection and
	// belief updates included.
	Duration time.Duration `json:"duration_ns"`
	// QueriesBought is the number of checking queries the selector picked.
	QueriesBought int `json:"queries_bought"`
	// AnswersRequested / AnswersReceived compare the answers the plan
	// asked for against what the source delivered; they differ when a
	// source returns a partial round (e.g. an expert timed out).
	AnswersRequested int `json:"answers_requested"`
	AnswersReceived  int `json:"answers_received"`
	// Spent is the round's budget charge; BudgetSpent the cumulative
	// total including any spend resumed from a checkpoint.
	Spent       float64 `json:"spent"`
	BudgetSpent float64 `json:"budget_spent"`
	// Overspent is the slice of Spent beyond the authorized budget (the
	// engine floors the remaining budget at zero instead of going
	// negative); almost always 0 — non-zero only when a round's last
	// purchase straddles the budget boundary.
	Overspent float64 `json:"overspent"`
	// TasksAdmitted counts tasks folded in through Config.Admit since the
	// previous round record; 0 for closed-loop runs.
	TasksAdmitted int `json:"tasks_admitted"`
	// Quality is Σ_t Q(F_t) after the round's update, QualityDelta its
	// change over the round.
	Quality      float64 `json:"quality"`
	QualityDelta float64 `json:"quality_delta"`
	// FrozenFacts counts (task, fact) pairs the stopping rule has settled;
	// 0 without a rule.
	FrozenFacts int `json:"frozen_facts"`
	// Selector is the incremental selection engine's work during this
	// round — CondEntropy-core evaluations (the unit of the benchmark's
	// taskselect.{uniform,costaware}.evals_per_round) and task-cache
	// hit/miss counts. Zero when the configured selector is not
	// incremental.
	Selector taskselect.SelectStats `json:"selector"`
}

// MetricsSink receives one RoundMetrics per completed round. RecordRound
// runs synchronously on the checking loop, so implementations must be
// fast and must not block; it may be called from whatever goroutine runs
// the engine.
type MetricsSink interface {
	RecordRound(m RoundMetrics)
}

// MetricsRecorder is the simplest sink: it appends every round in order.
// Safe for concurrent use.
type MetricsRecorder struct {
	mu     sync.Mutex
	rounds []RoundMetrics //hclint:guardedby mu
}

// RecordRound implements MetricsSink.
func (r *MetricsRecorder) RecordRound(m RoundMetrics) {
	r.mu.Lock()
	r.rounds = append(r.rounds, m)
	r.mu.Unlock()
}

// Rounds returns a copy of everything recorded so far.
func (r *MetricsRecorder) Rounds() []RoundMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RoundMetrics{}, r.rounds...)
}

// MultiMetrics fans one round record out to several sinks, in order.
type MultiMetrics []MetricsSink

// RecordRound implements MetricsSink.
func (mm MultiMetrics) RecordRound(m RoundMetrics) {
	for _, s := range mm {
		if s != nil {
			s.RecordRound(m)
		}
	}
}
