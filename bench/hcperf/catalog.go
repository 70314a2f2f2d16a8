package main

// metricDef declares one metric of the benchmark's final JSON line.
// BENCHMARK.json lists the same names and units; TestCatalogMatchesBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics. Every workload reports all of
// them. An op is the workload's unit of work: one full Figure 2 (fig2),
// one uniform plus one cost-aware run on one dataset (hc-loop), one
// acknowledged POST /answers (serve-ack, serve-stream).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// aggregatorNames are the Figure 2 baselines, in aggregate.Registry
// order.
var aggregatorNames = []string{"MV", "DS", "ZC", "GLAD", "CRH", "BWA", "BCC", "EBCC"}

// flavours are the checking loop's two selection engines.
var flavours = []string{"uniform", "costaware"}

// ladderMetrics are per-layer unit costs measured by calling each
// layer's public API on a fixture derived from the seed. Every traced
// run measures them the same way, so none of them is ever missing.
func ladderMetrics() []metricDef {
	var ms []metricDef
	for _, a := range aggregatorNames {
		ms = append(ms, metricDef{"aggregate." + a + ".call_ms", "ms"})
	}
	for _, a := range aggregatorNames {
		ms = append(ms, metricDef{"aggregate." + a + ".allocs_per_call", "count"})
	}
	return append(ms,
		metricDef{"dataset.with_expert_answers.call_us", "us"},
		metricDef{"taskselect.condentropy.ns", "ns"},
		metricDef{"taskselect.condentropy_assign.ns", "ns"},
		metricDef{"belief.update.us", "us"},
		metricDef{"belief.quality.us", "us"},
		metricDef{"taskselect.select.us", "us"},
		metricDef{"taskselect.select_assign.us", "us"},
		metricDef{"journal.append_sync.p50_us", "us"},
		metricDef{"journal.append_sync.p99_us", "us"},
		metricDef{"server.session_answer.us", "us"},
		metricDef{"server.http_answer.p50_us", "us"},
	)
}

// pathMetrics break the workload's own traced ops down by layer. A
// layer the workload does not reach reports 0.
func pathMetrics() []metricDef {
	var ms []metricDef
	// fig2: self time per figure of each call the traced replay makes.
	for _, a := range aggregatorNames {
		ms = append(ms, metricDef{"aggregate." + a + ".ms", "ms"})
	}
	ms = append(ms,
		metricDef{"dataset.with_expert_answers.ms", "ms"},
		metricDef{"dataset.with_expert_answers.calls", "count"},
		metricDef{"eval.ms", "ms"},
		metricDef{"pipeline.hc_arm.ms", "ms"},
		metricDef{"fig2.unaccounted_ms", "ms"},
	)
	// hc-loop, per flavour; fig2's HC arm fills the uniform ones.
	for _, f := range flavours {
		p := "pipeline." + f
		ms = append(ms,
			metricDef{p + ".run_ms", "ms"},
			metricDef{p + ".round_p50_us", "us"},
			metricDef{p + ".round_p99_us", "us"},
			metricDef{p + ".source_ms", "ms"},
			metricDef{p + ".round_self_ms", "ms"},
			metricDef{p + ".allocs_per_round", "count"},
			metricDef{"taskselect." + f + ".evals_per_round", "count"},
			metricDef{"taskselect." + f + ".cache_hit_ratio", "ratio"},
		)
	}
	return append(ms,
		metricDef{"aggregate.init.ms", "ms"},
		// serve-ack and serve-stream: client-side round trips, then the
		// counters the server exports.
		metricDef{"client.ack_tail_ms", "ms"},
		metricDef{"client.poll_p50_ms", "ms"},
		metricDef{"client.poll_tail_ms", "ms"},
		metricDef{"client.create_tail_ms", "ms"},
		metricDef{"client.admit_tail_ms", "ms"},
		metricDef{"journal.sync.mean_ms", "ms"},
		metricDef{"journal.sync.p99_ms", "ms"},
		metricDef{"journal.syncs_per_answer", "ratio"},
		metricDef{"journal.bytes_per_answer", "B"},
		metricDef{"journal.write_amplification", "ratio"},
		metricDef{"journal.compactions_per_session", "count"},
		metricDef{"journal.decode.ms", "ms"},
		metricDef{"journal.image_records", "count"},
		metricDef{"journal.image_mb", "MB"},
		metricDef{"server.answer_handler.mean_ms", "ms"},
		metricDef{"server.answer_handler.p99_ms", "ms"},
		metricDef{"server.http_overhead.mean_ms", "ms"},
		metricDef{"server.poll_useful_ratio", "ratio"},
		metricDef{"server.stale_409_ratio", "ratio"},
		metricDef{"server.gone_410_ratio", "ratio"},
		metricDef{"server.create_handler.p90_ms", "ms"},
		metricDef{"server.admit_handler.p90_ms", "ms"},
		metricDef{"server.recover_s", "s"},
		metricDef{"server.recover_call.s", "s"},
		metricDef{"pipeline.rounds_per_s", "1/s"},
		// Every workload.
		metricDef{"process.allocs_per_op", "count"},
		metricDef{"process.gc_cpu_fraction", "ratio"},
		metricDef{"bench.span_coverage_pct", "%"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
}

// perLayer is every traced-run metric.
func perLayer() []metricDef { return append(ladderMetrics(), pathMetrics()...) }

// sizes fixes how much work each workload does. full is the
// benchmark's; the smoke test shrinks it.
type sizes struct {
	// setupReps: set-up runs this many times and setup_s is the median,
	// so one slow start does not move it.
	setupReps int

	// fig2Quick runs Figure 2 in its quick mode (30 tasks) instead of at
	// the paper's scale (200 tasks x 5 facts, budget grid 0..1000).
	fig2Quick bool
	// fig2Panel distinct figure seeds per run. Figure time moves by about
	// 13% (CV) with the seed, so a run spreads its ~11 figures over
	// distinct seeds instead of timing one seed over and over; the first
	// seed runs twice so every run checks that a figure repeats.
	fig2Panel int

	// hcTasks x 5 facts with budget hcBudget and hcK picks per round:
	// 250 uniform and 500 cost-aware rounds per op, about 0.17 s. At
	// 2,000 tasks an op takes 2.6 s and a run holds too few ops for its
	// median to ride out the machine's slow spells; at this size a run
	// holds ~150 ops and selection is a larger share of a round.
	hcTasks  int
	hcBudget float64
	hcK      int
	// hcPanel datasets alternate, so each one runs many times per run
	// and its labels are compared with its first run.
	hcPanel int

	// ackSessions live sessions share the two expert connections. The
	// engines publishing the next rounds are the bottleneck, so most
	// polls find no open round; 64 sessions instead of 16 left that share
	// and the run-to-run spread unchanged.
	ackSessions int
	// ackConfigs distinct (dataset, seed) pairs; sessions cycle through
	// them and each one's labels are checked against a reference.
	ackConfigs int
	// ackTasks x 5 facts with ackBudget answers: 60 rounds of one query
	// answered by both experts, so creation is a visible but small share
	// of the load.
	ackTasks  int
	ackBudget float64

	// streamSessions streaming cost-aware sessions, each starting with
	// streamBaseTasks tasks and then receiving streamFragments two-task
	// fragments, one after every streamAdmitEvery rounds; the last
	// carries final=true. streamBudget plus streamWindow per fragment
	// funds one answer per round. Each round asks one expert, so the
	// sessions are split between the connections, each answering as
	// whichever expert a round asks: with one connection per expert, a
	// seed whose rounds mostly ask one expert left the other connection
	// idle, and the ack median across seeds was bimodal.
	streamSessions   int
	streamConfigs    int
	streamBaseTasks  int
	streamFragments  int
	streamAdmitEvery int
	streamBudget     float64
	streamWindow     float64
	// streamLoadShare of the run answers and admits; the rest recovers
	// the crash image, at most streamRecoveries times.
	streamLoadShare  float64
	streamRecoveries int

	// ladderTasks x 5 facts is the ladder fixture: Figure 2's dataset
	// shape, with ladderExtra expert answers on top of the preliminary
	// matrix (the middle of Figure 2's budget grid).
	ladderTasks int
	ladderExtra int
	// ladderAggReps calls per aggregator; the median is reported.
	ladderAggReps int
	// ladderRounds rounds for the selection and answer-path rungs;
	// ladderProbes journal appends with an fsync each.
	ladderRounds int
	ladderProbes int
}

var full = sizes{
	setupReps: 5,

	fig2Panel: 16,

	hcTasks:  500,
	hcBudget: 2000,
	hcK:      4,
	hcPanel:  8,

	ackSessions: 16,
	ackConfigs:  8,
	ackTasks:    40,
	ackBudget:   120,

	streamSessions:   16,
	streamConfigs:    8,
	streamBaseTasks:  60,
	streamFragments:  30,
	streamAdmitEvery: 4,
	streamBudget:     120,
	streamWindow:     2,
	streamLoadShare:  0.75,
	streamRecoveries: 10,

	ladderTasks:   200,
	ladderExtra:   500,
	ladderAggReps: 3,
	ladderRounds:  100,
	ladderProbes:  500,
}
