package server

import (
	"net/http"

	"hcrowd/internal/obsv"
	"hcrowd/internal/pipeline"
)

// Metrics is the labeling service's instrument bundle: HTTP traffic,
// session round-lifecycle events, and — via its pipeline.MetricsSink
// implementation — the checking loop's per-round figures, including the
// incremental selectors' CondEntropy-eval counts (the unit of the
// benchmark's taskselect.{uniform,costaware}.evals_per_round). One bundle
// serves one Session; scrape it at GET /metrics, or with every other
// registered session's under a "session" label at GET /v1/metrics.
type Metrics struct {
	reg *obsv.Registry

	// HTTP layer (shared shape with the manager's bundle; see
	// httpInstruments).
	http *httpInstruments

	// Session round lifecycle.
	roundsPublished *obsv.Counter
	roundsCompleted *obsv.Counter
	roundsExpired   *obsv.Counter
	answersAccepted *obsv.Counter
	answersRejected *obsv.CounterVec // reason
	tasksAdmitted   *obsv.Counter    // streaming sessions: fragments accepted

	// Pipeline rounds (fed by RecordRound).
	pipelineRounds   *obsv.Counter
	roundSeconds     *obsv.Histogram
	queriesBought    *obsv.Counter
	answersRequested *obsv.Counter
	answersReceived  *obsv.Counter
	budgetSpent      *obsv.Gauge
	quality          *obsv.Gauge
	frozenFacts      *obsv.Gauge
	selectorEvals    *obsv.Counter
	selectorRescans  *obsv.Counter
	selectorReused   *obsv.Counter

	// Durability (journal-backed sessions only; zero otherwise).
	journal *journalInstruments
}

// journalInstruments is the write-ahead journal's instrument set:
// append/sync volume (every sync is an fsync on the session's ack path,
// so syncSeconds is the durability tax on answer latency), compactions,
// I/O errors, and the records replayed into the session at recovery.
type journalInstruments struct {
	appends     *obsv.Counter
	bytes       *obsv.Counter
	syncs       *obsv.Counter
	syncSeconds *obsv.Histogram
	compactions *obsv.Counter
	errors      *obsv.Counter
	replayed    *obsv.Counter
}

// newJournalInstruments registers the journal instrument set.
func newJournalInstruments(reg *obsv.Registry) *journalInstruments {
	return &journalInstruments{
		appends: reg.Counter("journal_appends_total",
			"records appended to the session journal"),
		bytes: reg.Counter("journal_bytes_total",
			"payload bytes appended to the session journal"),
		syncs: reg.Counter("journal_syncs_total",
			"journal fsyncs (each one a client-visible commit point)"),
		syncSeconds: reg.Histogram("journal_sync_seconds",
			"journal fsync latency", nil),
		compactions: reg.Counter("journal_compactions_total",
			"journal logs folded into their latest checkpoint"),
		errors: reg.Counter("journal_errors_total",
			"journal append/sync/compact failures (each fails its session)"),
		replayed: reg.Counter("journal_replayed_records_total",
			"journaled answers re-injected during crash recovery"),
	}
}

// httpInstruments is the HTTP middleware's instrument set. The session
// bundle and the manager bundle each own one (the manager's under a
// "manager_" name prefix), so the route middleware in http.go serves
// both without knowing which layer it instruments.
type httpInstruments struct {
	requests       *obsv.CounterVec // route, code
	latency        *obsv.HistogramVec
	inflight       *obsv.Gauge
	panics         *obsv.Counter
	writeErrors    *obsv.Counter
	methodRejected *obsv.Counter
}

// newHTTPInstruments registers the middleware instrument set under the
// given metric-name prefix.
func newHTTPInstruments(reg *obsv.Registry, prefix string) *httpInstruments {
	return &httpInstruments{
		requests: reg.CounterVec(prefix+"http_requests_total",
			"HTTP requests served", "route", "code"),
		latency: reg.HistogramVec(prefix+"http_request_seconds",
			"HTTP request latency", nil, "route"),
		inflight: reg.Gauge(prefix+"http_inflight_requests",
			"requests currently being handled"),
		panics: reg.Counter(prefix+"http_panics_total",
			"handler panics recovered to 500"),
		writeErrors: reg.Counter(prefix+"http_write_errors_total",
			"response bodies that failed to encode or write"),
		methodRejected: reg.Counter(prefix+"http_method_rejected_total",
			"requests refused with 405 Method Not Allowed"),
	}
}

// NewMetrics builds a bundle with every instrument registered.
func NewMetrics() *Metrics {
	reg := obsv.NewRegistry()
	return &Metrics{
		reg: reg,

		http: newHTTPInstruments(reg, ""),

		roundsPublished: reg.Counter("session_rounds_published_total",
			"checking rounds published to experts"),
		roundsCompleted: reg.Counter("session_rounds_completed_total",
			"rounds completed with a full panel"),
		roundsExpired: reg.Counter("session_rounds_expired_total",
			"rounds closed by the timeout with a partial panel"),
		answersAccepted: reg.Counter("session_answers_accepted_total",
			"expert answer sets accepted"),
		answersRejected: reg.CounterVec("session_answers_rejected_total",
			"expert answer sets rejected", "reason"),
		tasksAdmitted: reg.Counter("session_fragments_admitted_total",
			"task fragments admitted into the streaming session"),

		pipelineRounds: reg.Counter("pipeline_rounds_total",
			"checking rounds the pipeline completed"),
		roundSeconds: reg.Histogram("pipeline_round_seconds",
			"pipeline round wall time", nil),
		queriesBought: reg.Counter("pipeline_queries_bought_total",
			"checking queries selected"),
		answersRequested: reg.Counter("pipeline_answers_requested_total",
			"expert answers requested"),
		answersReceived: reg.Counter("pipeline_answers_received_total",
			"expert answers received"),
		budgetSpent: reg.Gauge("pipeline_budget_spent",
			"cumulative budget consumed (incl. resumed spend)"),
		quality: reg.Gauge("pipeline_quality",
			"total belief quality after the latest round"),
		frozenFacts: reg.Gauge("pipeline_frozen_facts",
			"facts settled by the stopping rule"),
		selectorEvals: reg.Counter("selector_evals_total",
			"CondEntropy-core evaluations by the incremental selector"),
		selectorRescans: reg.Counter("selector_rescans_total",
			"task gain caches rebuilt (selector cache misses)"),
		selectorReused: reg.Counter("selector_reused_total",
			"task gain caches reused across rounds (selector cache hits)"),

		journal: newJournalInstruments(reg),
	}
}

// RecordRound implements pipeline.MetricsSink.
func (m *Metrics) RecordRound(r pipeline.RoundMetrics) {
	m.pipelineRounds.Inc()
	m.roundSeconds.Observe(r.Duration.Seconds())
	m.queriesBought.Add(float64(r.QueriesBought))
	m.answersRequested.Add(float64(r.AnswersRequested))
	m.answersReceived.Add(float64(r.AnswersReceived))
	m.budgetSpent.Set(r.BudgetSpent)
	m.quality.Set(r.Quality)
	m.frozenFacts.Set(float64(r.FrozenFacts))
	m.selectorEvals.Add(float64(r.Selector.Evals))
	m.selectorRescans.Add(float64(r.Selector.Rescans))
	m.selectorReused.Add(float64(r.Selector.Reused))
}

// Handler serves the metrics snapshot as JSON.
func (m *Metrics) Handler() http.Handler { return m.reg.Handler() }

var _ pipeline.MetricsSink = (*Metrics)(nil)

// ManagerMetrics is the session manager's bundle: its own HTTP traffic
// under a manager_ prefix (so one scrape can't confuse service-level and
// session-level request counts), session lifecycle counters and cluster
// routing counters. Per-session figures stay in each session's own
// bundle; GET /v1/metrics folds those in at scrape time, so a session's
// numbers leave the scrape with its registry entry.
type ManagerMetrics struct {
	reg *obsv.Registry

	http *httpInstruments

	sessionsCreated   *obsv.Counter
	sessionsEvicted   *obsv.Counter
	sessionsRecovered *obsv.Counter
	sessionsByState   *obsv.GaugeVec // state

	// Cluster routing and rebalance (replica mode; zero otherwise).
	clusterRedirects *obsv.Counter
	clusterProxied   *obsv.Counter
	clusterHandoffs  *obsv.Counter
	clusterAccepts   *obsv.Counter
}

// NewManagerMetrics builds the manager bundle with every instrument
// registered.
func NewManagerMetrics() *ManagerMetrics {
	reg := obsv.NewRegistry()
	return &ManagerMetrics{
		reg: reg,

		http: newHTTPInstruments(reg, "manager_"),

		sessionsCreated: reg.Counter("manager_sessions_created_total",
			"sessions created or adopted"),
		sessionsEvicted: reg.Counter("manager_sessions_evicted_total",
			"finished sessions evicted by the retention policy"),
		sessionsRecovered: reg.Counter("manager_sessions_recovered_total",
			"sessions rebuilt from their journals at startup"),
		sessionsByState: reg.GaugeVec("manager_sessions",
			"registered sessions by lifecycle state", "state"),

		clusterRedirects: reg.Counter("cluster_redirects_total",
			"session requests 307-redirected to their owning replica"),
		clusterProxied: reg.Counter("cluster_proxied_total",
			"session requests reverse-proxied to their owning replica"),
		clusterHandoffs: reg.Counter("cluster_handoffs_total",
			"sessions handed off to another replica (journal streamed, local copy retired)"),
		clusterAccepts: reg.Counter("cluster_accepts_total",
			"sessions accepted from another replica's journal handoff"),
	}
}
