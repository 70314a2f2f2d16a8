// Command hcserve runs the hierarchical crowdsourcing loop as an HTTP
// labeling service. It starts one session from the -in dataset and
// serves it both at the server root (the "default" session's routes) and
// through the multi-session management API under /v1:
//
//	GET  /experts                 experts who may answer
//	GET  /queries?worker=e0       the open checking round for that expert
//	POST /answers                 {"round": n, "worker": "e0", "values": [...]}
//	POST /tasks                   streaming sessions: admit task fragments
//	GET  /status                  progress JSON
//	GET  /labels                  final labels once done
//	GET  /checkpoint              warm checkpoint JSON
//	GET  /metrics                 the session's metrics snapshot
//
//	POST   /v1/sessions           create another session (dataset + config JSON)
//	GET    /v1/sessions           list sessions
//	GET    /v1/sessions/{id}      one session's state + status
//	DELETE /v1/sessions/{id}      cancel a session
//	*      /v1/sessions/{id}/...  that session's routes (as above)
//	GET    /v1/metrics            service metrics plus every session's
//
// -max-running bounds how many session engines execute simultaneously
// (further sessions queue); -retention caps how many finished sessions
// stay inspectable before the oldest are evicted.
//
// With -sim the server answers the default session's queries from the
// dataset's ground truth under each expert's accuracy (the paper's
// simulation protocol) — useful for demos and smoke tests.
//
// With -checkpoint the server persists the default session's warm
// checkpoint after every completed round (written atomically); -resume
// loads such a file and continues the job where it stopped, re-asking
// nothing.
//
// With -journal-dir every session is durable: its history is appended
// to a per-session write-ahead log ("<id>.journal"), fsynced before any
// answer is acknowledged, and on startup the server recovers every
// journaled session — including a "default" from a previous run, whose
// journaled dataset and config then supersede the command-line flags.
// A kill -9 mid-round loses nothing a client was told succeeded: the
// restarted server replays the journal and continues the same rounds
// with the same IDs. -compact-every bounds log growth by folding the
// journal into its newest checkpoint after that many rounds.
// -cost-aware switches the default session to the cost-aware checking
// loop (§III-D); -cost-model picks how answers are priced (unit or
// accuracy).
//
// Shutdown is graceful: on SIGINT/SIGTERM the service drains — every
// session stops accepting answers (POST /answers returns 503), engines
// get up to -drain-timeout to absorb their in-flight completed rounds,
// one final checkpoint per session is written to -checkpoint-dir (when
// set), and only then does the HTTP server shut down. Progress since
// the last completed round before the signal is never lost.
//
// With -peers (and -self) the server runs in replica mode: the static
// peer set forms a consistent-hash ring over session IDs, requests for
// sessions owned elsewhere answer 307 to the owner (or are transparently
// proxied with -cluster-proxy), GET /v1/cluster exposes the membership,
// and POST /v1/cluster/handoff/{id} rebalances a session by quiescing
// it and streaming its journal to the new owner — which is why replica
// mode requires -journal-dir. Sessions present locally are always
// served locally, so a journal accepted from a dead peer keeps working
// even though the ring still names the old owner. -in is optional in
// replica mode; when given, the "default" session is created only on
// the replica the ring assigns it to.
//
// The http.Server carries ReadHeaderTimeout and IdleTimeout so a
// slow-header (slowloris) client cannot pin connections open forever.
//
// Observability: GET /metrics returns the session's full metrics
// snapshot as JSON; GET /v1/metrics the manager's, with every session's
// metrics under a "session" label. Round transitions are logged to stderr.
// With -pprof the standard net/http/pprof profiling endpoints are
// additionally mounted under /debug/pprof/ (off by default: profiles
// can reveal more about the host than a labeling endpoint should).
//
// Usage:
//
//	hcserve -in dataset.json -addr :8080 -budget 500
//	hcserve -in dataset.json -sim   # self-driving demo
//	hcserve -in dataset.json -checkpoint job.ck          # crash-safe
//	hcserve -in dataset.json -checkpoint job.ck -resume job.ck
//	hcserve -in dataset.json -checkpoint-dir ./ckpts     # drain target
//	hcserve -in dataset.json -journal-dir ./wal          # kill -9 safe
//	hcserve -in dataset.json -pprof # also serve /debug/pprof/
//	hcserve -addr :8081 -self 10.0.0.1:8081 \
//	        -peers 10.0.0.1:8081,10.0.0.2:8081 -journal-dir ./wal  # replica
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"hcrowd"
	"hcrowd/internal/cluster"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
	"hcrowd/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hcserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hcserve", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "dataset JSON file (required)")
		addr    = fs.String("addr", "127.0.0.1:8080", "listen address")
		budget  = fs.Float64("budget", 500, "expert answer budget")
		bw      = fs.Float64("budget-window", 0, "streaming mode: budget refilled per admitted fragment (POST /tasks); 0 = closed task set")
		k       = fs.Int("k", 1, "checking queries per round")
		init    = fs.String("init", "EBCC", "belief initializer")
		seed    = fs.Int64("seed", 1, "seed (simulation mode)")
		sim     = fs.Bool("sim", false, "answer queries internally from ground truth")
		rt      = fs.Duration("round-timeout", 0, "proceed with partial answers after this long (0 = wait for all experts)")
		ckPath  = fs.String("checkpoint", "", "persist the warm checkpoint to this file after every round")
		rsPath  = fs.String("resume", "", "resume from a checkpoint file written by -checkpoint")
		ckDir   = fs.String("checkpoint-dir", "", "write one final checkpoint per session here on graceful drain")
		jDir    = fs.String("journal-dir", "", "per-session write-ahead logs live here; sessions recover from them on start")
		compact = fs.Int("compact-every", 0, "fold each journal into its newest checkpoint after this many rounds (0 = default, negative = never); needs -journal-dir")
		costAw  = fs.Bool("cost-aware", false, "run the cost-aware checking loop (greedy per-answer purchases)")
		costMod = fs.String("cost-model", "", "answer pricing: unit (default) or accuracy")
		maxRun  = fs.Int("max-running", 4, "session engines allowed to run simultaneously (0 = unbounded)")
		keep    = fs.Int("retention", 16, "finished sessions kept before eviction (0 = keep all)")
		drainTO = fs.Duration("drain-timeout", 10*time.Second, "how long a drain waits for in-flight rounds")
		pprofd  = fs.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/")
		self    = fs.String("self", "", "replica mode: this replica's advertised address, exactly as listed in -peers")
		peers   = fs.String("peers", "", "replica mode: comma-separated static membership (all replicas, self included)")
		vnodes  = fs.Int("vnodes", 0, "replica mode: virtual nodes per ring member (0 = default)")
		cproxy  = fs.Bool("cluster-proxy", false, "replica mode: reverse-proxy misrouted session requests instead of 307-redirecting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	clusterMode := *peers != ""
	var ccfg cluster.Config
	if clusterMode {
		if *jDir == "" {
			return fmt.Errorf("-peers requires -journal-dir (rebalancing streams session journals)")
		}
		if *sim {
			return fmt.Errorf("-sim drives the default session locally and is incompatible with -peers")
		}
		var err error
		if ccfg, err = cluster.ParseConfig(*self, *peers, *vnodes); err != nil {
			return err
		}
	} else {
		if *self != "" || *cproxy {
			return fmt.Errorf("-self and -cluster-proxy require -peers")
		}
		if *in == "" {
			return fmt.Errorf("missing -in (dataset file)")
		}
	}
	if *compact != 0 && *jDir == "" {
		return fmt.Errorf("-compact-every requires -journal-dir")
	}
	var (
		rawDS []byte
		ds    *hcrowd.Dataset
	)
	if *in != "" {
		var err error
		if rawDS, err = os.ReadFile(*in); err != nil {
			return err
		}
		if ds, err = hcrowd.ReadDataset(bytes.NewReader(rawDS)); err != nil {
			return err
		}
	}
	logger := log.New(os.Stderr, "hcserve: ", log.LstdFlags)
	var (
		rawResume []byte
		resumeCk  *pipeline.Checkpoint
	)
	if *rsPath != "" {
		var err error
		if rawResume, err = os.ReadFile(*rsPath); err != nil {
			return err
		}
		if resumeCk, err = pipeline.ReadCheckpoint(bytes.NewReader(rawResume)); err != nil {
			return fmt.Errorf("resume %s: %w", *rsPath, err)
		}
		if err := resumeCk.CheckFlavor(*costAw); err != nil {
			return fmt.Errorf("resume %s: %w", *rsPath, err)
		}
	}

	// Sessions run on the background context, not the signal context: a
	// signal triggers the graceful drain below, which checkpoints every
	// session before anything is cancelled.
	mgr := server.NewManager(server.ManagerOptions{
		MaxRunning:    *maxRun,
		Retention:     *keep,
		CheckpointDir: *ckDir,
		JournalDir:    *jDir,
		CompactEvery:  *compact,
		Logger:        logger,
	})
	var clu *server.Cluster
	if clusterMode {
		var err error
		if clu, err = server.NewCluster(mgr, server.ClusterOptions{
			Self:   ccfg.Self,
			Peers:  ccfg.Peers,
			VNodes: ccfg.VNodes,
			Proxy:  *cproxy,
			Logger: logger,
		}); err != nil {
			return err
		}
	}
	var sess *server.Session
	if *jDir != "" {
		// Durable mode: recover every journaled session first. A recovered
		// "default" carries its own dataset and config — the flags that
		// described the original job are superseded by the journal.
		recovered, err := mgr.Recover()
		if err != nil {
			return err
		}
		if len(recovered) > 0 {
			logger.Printf("recovered %d session(s) from %s: %v", len(recovered), *jDir, recovered)
		}
		if s, ok := mgr.Get("default"); ok {
			sess = s
			logger.Printf("default session resumed from its journal; dataset/config flags ignored")
		} else if *in != "" {
			// In replica mode the "default" session belongs to exactly one
			// ring member; the others ignore -in rather than all creating a
			// divergent copy of the same job.
			if clusterMode && clu.Ring().Owner("default") != ccfg.Self {
				logger.Printf("replica %s does not own session %q (owner %s); -in ignored here",
					ccfg.Self, "default", clu.Ring().Owner("default"))
			} else {
				sc := server.SessionConfig{
					K:            *k,
					Budget:       *budget,
					BudgetWindow: *bw,
					Init:         *init,
					Seed:         *seed,
					CostAware:    *costAw,
					CostModel:    *costMod,
					Checkpoint:   rawResume,
				}
				if *rt > 0 {
					sc.RoundTimeout = rt.String()
				}
				if _, sess, err = mgr.CreateFromRequest(server.CreateSessionRequest{
					Name: "default", Dataset: rawDS, Config: sc,
				}); err != nil {
					return err
				}
			}
		}
		if *ckPath != "" {
			// The per-round checkpoint file callback only rides the flag-built
			// config; journaled sessions already persist every round.
			logger.Printf("-checkpoint is superseded by -journal-dir; not writing %s", *ckPath)
		}
	} else {
		agg, err := hcrowd.AggregatorByName(*init, *seed)
		if err != nil {
			return err
		}
		couple, err := ds.EstimateCoupling()
		if err != nil {
			return err
		}
		cost, err := server.CostModelByName(*costMod)
		if err != nil {
			return err
		}
		cfg := pipeline.Config{
			K:             *k,
			Budget:        *budget,
			BudgetWindow:  *bw,
			Init:          agg,
			PriorCoupling: couple,
			Cost:          cost,
			From:          resumeCk,
		}
		if *ckPath != "" {
			// Advisory: a failed write loses a resume point, not the run.
			cfg.Journal = func(_ int, ck *pipeline.Checkpoint) error {
				if err := server.WriteCheckpointFile(*ckPath, ck); err != nil {
					fmt.Fprintln(os.Stderr, "hcserve: checkpoint:", err)
				}
				return nil
			}
		}
		opts := server.SessionOptions{RoundTimeout: *rt, CostAware: *costAw}
		if _, sess, err = mgr.Create("default", ds, cfg, opts); err != nil {
			return err
		}
	}
	rootHandler, haveDefault := mgr.SessionHandler("default")
	if !haveDefault && !clusterMode {
		return fmt.Errorf("default session not registered")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	if clusterMode {
		mux.Handle("/v1/", clu.Handler())
	} else {
		mux.Handle("/v1/", mgr.Handler())
	}
	if haveDefault {
		mux.Handle("/", rootHandler)
	}
	if *pprofd {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{
		Handler: mux,
		// Slowloris hardening: a client that trickles its header bytes (or
		// parks an idle keep-alive connection) cannot hold a connection
		// slot indefinitely.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	// Drain before shutdown, in this order: sessions stop accepting
	// answers and are checkpointed while the server still responds (so
	// clients see 503s and a draining status, not connection resets),
	// then the listener closes.
	var shutdownOnce sync.Once
	shutdown := func() {
		shutdownOnce.Do(func() {
			drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
			defer cancel()
			if err := mgr.Drain(drainCtx); err != nil {
				logger.Printf("drain: %v", err)
			}
			shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel2()
			if err := srv.Shutdown(shutdownCtx); err != nil {
				logger.Printf("shutdown: %v", err)
			}
		})
	}
	go func() {
		<-ctx.Done()
		shutdown()
	}()
	if clusterMode {
		fmt.Fprintf(stdout, "hcserve: replica %s of %d-member ring, listening on %s\n",
			ccfg.Self, len(ccfg.Peers), ln.Addr())
	} else {
		fmt.Fprintf(stdout, "hcserve: %d facts, experts %v, budget %.0f, listening on %s\n",
			ds.NumFacts(), sess.Experts(), *budget, ln.Addr())
	}

	if *sim {
		go simulate(ctx, sess, ds, *seed)
		go func() {
			// In demo mode the process exits when labeling completes.
			if _, err := sess.Wait(ctx); err == nil {
				st := sess.Status()
				fmt.Fprintf(stdout, "hcserve: done after %d rounds, quality %.4f\n",
					st.Rounds, st.Quality)
			}
			shutdown()
		}()
	}
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// simulate answers every published round from the ground truth under each
// expert's accuracy — the offline protocol of §IV-A.
func simulate(ctx context.Context, sess *server.Session, ds *hcrowd.Dataset, seed int64) {
	rng := rngutil.New(seed + 99)
	ce, _ := ds.Split()
	for ctx.Err() == nil {
		progressed := false
		for _, w := range ce {
			round, facts, ok := sess.Queries(w.ID)
			if !ok {
				continue
			}
			values := make([]bool, len(facts))
			for i, f := range facts {
				v := ds.Truth[f]
				if rng.Float64() >= w.PCorrect(v) {
					v = !v
				}
				values[i] = v
			}
			if err := sess.Answer(round, w.ID, values); err != nil {
				return
			}
			progressed = true
		}
		if !progressed {
			select {
			case <-ctx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
}
