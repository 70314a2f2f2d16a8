// Package server exposes the hierarchical crowdsourcing loop as a
// long-running labeling service: the pipeline selects checking queries,
// the server publishes them to expert clients over HTTP, collects their
// answers, feeds them back into the Bayesian update, and reports
// progress and final labels. It is the online counterpart of the
// simulated-answer experiments — the paper's framework as a deployable
// system.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"sort"
	"sync"
	"time"

	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/pipeline"
)

// ErrClosed is returned when answering a session that already finished.
var ErrClosed = errors.New("server: session closed")

// ErrDraining is returned when answering a session that is draining: the
// service is shutting down gracefully, no new answers are admitted, and
// the session's progress through its last completed round is about to be
// checkpointed. HTTP maps it to 503 so clients know to stop rather than
// re-poll.
var ErrDraining = errors.New("server: session draining")

// ErrRoundClosed is returned when answering a round that already
// completed (full panel or timeout) but has not yet been replaced by the
// next round. The answer is NOT recorded: the completed round's family
// is what the pipeline consumes, and admitting stragglers would make the
// consumed family — and every downstream belief — depend on goroutine
// scheduling. HTTP maps it to 409; clients should re-poll for the next
// round.
var ErrRoundClosed = errors.New("server: round closed")

// ErrNotStreaming is returned when admitting tasks into a session that
// was not created with a budget window: a closed-loop session's engine
// never polls for admissions, so accepted fragments would sit in the
// queue forever. HTTP maps it to 409.
var ErrNotStreaming = errors.New("server: session is not streaming (no budget window)")

// ErrStreamEnded is returned when admitting tasks after a final
// admission closed the stream. HTTP maps it to 409.
var ErrStreamEnded = errors.New("server: admission stream already ended")

// ErrBadFragment wraps fragment validation failures on the admission
// path. HTTP maps it to 422: the request was well-formed JSON but the
// fragment itself is unusable (inconsistent structure, or answers from
// workers that are not the dataset's preliminary crowd).
var ErrBadFragment = errors.New("server: invalid fragment")

// pendingRound is one published query set awaiting expert answers.
type pendingRound struct {
	id       int
	facts    []int                      // global fact indices
	panel    crowd.Crowd                // the experts this round awaits
	answers  map[string]crowd.AnswerSet // keyed by worker ID
	done     chan struct{}              // closed when the round completes
	complete bool                       // guards double-close of done
}

// Session runs one labeling job: the pipeline loop executes in a
// background goroutine and blocks inside the queue source whenever it
// needs expert answers.
type Session struct {
	ds      *dataset.Dataset
	experts crowd.Crowd

	mu       sync.Mutex
	pending  *pendingRound    //hclint:guardedby mu
	nextID   int              //hclint:guardedby mu
	result   *pipeline.Result //hclint:guardedby mu
	runErr   error            //hclint:guardedby mu
	closed   bool             //hclint:guardedby mu
	draining bool             //hclint:guardedby mu
	// checkpoint is the latest warm checkpoint the loop emitted (one per
	// completed round); nil until the first round finishes.
	checkpoint *pipeline.Checkpoint //hclint:guardedby mu

	// journal, when non-nil, makes the session durable: accepted answers
	// and sealed rounds are fsynced before they are acknowledged, and
	// every engine round commits its checkpoint to the log. jerr is the
	// sticky first journal failure — once set, the session stops
	// accepting answers and the engine aborts with it (a session that
	// cannot persist its history must not keep collecting it).
	journal *sessionJournal
	jerr    error //hclint:guardedby mu
	// replay is the journaled round suffix a recovered session still owes
	// the engine: publish pops it, validates the engine re-planned the
	// identical round, and injects the journaled answers before going
	// live. costAware selects the cost-aware engine flavor.
	replay    []*replayRound //hclint:guardedby mu
	costAware bool

	// Streaming admission (enabled when the config carries a budget
	// window): AdmitTasks journals and queues fragments, the engine's
	// admission source drains the queue at round boundaries. admitCh is
	// replaced and closed under mu to wake a parked engine; waiters
	// capture it under mu and block on the captured copy.
	admitEnabled bool          //hclint:guardedby mu
	admitQueue   []stagedAdmit //hclint:guardedby mu
	// admitSeq is the last journaled admission sequence number,
	// appliedSeq the highest sequence handed to the engine, admitFrags
	// the count of fragments accepted (streaming Status), admitWaiting
	// whether the engine is parked in Poll awaiting fragments.
	admitSeq      int             //hclint:guardedby mu
	appliedSeq    int             //hclint:guardedby mu
	admitFrags    int             //hclint:guardedby mu
	admitFinal    bool            //hclint:guardedby mu
	admitWaiting  bool            //hclint:guardedby mu
	admitCh       chan struct{}   //hclint:guardedby mu
	prelimWorkers map[string]bool // accept-time validation snapshot; immutable after construction

	finished chan struct{}
	cancel   context.CancelFunc

	// roundTimeout, when positive, closes a round with the answers
	// received so far once the deadline passes (at least one answer is
	// required — an entirely silent panel keeps the round open). It
	// prevents a single absent expert from deadlocking the session.
	roundTimeout time.Duration

	// metrics is always non-nil (the manager's bundle, or auto-created);
	// logger may be nil (no round-transition logging).
	metrics *Metrics
	logger  *log.Logger
}

// SessionOptions bundles the optional knobs of a session.
type SessionOptions struct {
	// RoundTimeout closes a round with the partial answers collected once
	// the deadline passes; 0 waits for the full panel forever.
	RoundTimeout time.Duration
	// Checkpoint, when non-nil, resumes the job from a warm checkpoint
	// instead of starting fresh.
	Checkpoint *pipeline.Checkpoint
	// Logger, when non-nil, receives round-transition log lines
	// (published / completed / expired / rejected stragglers).
	Logger *log.Logger
	// CostAware runs the cost-aware checking loop (per-worker answer
	// prices drive the assignment; see pipeline.RunCostAware) instead of
	// the uniform one. The cfg passed to the constructor must then carry
	// the Cost function.
	CostAware bool

	// Manager-owned wiring. gate, when non-nil, is acquired before the
	// pipeline engine starts and released when it returns: a gated session
	// sits queued (publishing no rounds) until the gate admits it, and an
	// acquire error (the gate rejected the session, or ctx ended) finishes
	// the session with that error without running the engine. metrics,
	// when non-nil, is the bundle the session's journal instruments were
	// drawn from; nil auto-creates one.
	gate    func(ctx context.Context) (release func(), err error)
	metrics *Metrics

	// Journal-backed operation (Create attaches a fresh journal when
	// journalReq carries the creation payload; Recover supplies a reopened
	// journal plus the parsed log it recovered from).
	journal    *sessionJournal
	journalReq *CreateSessionRequest
	recovered  *recoveredSession
}

// stagedAdmit is one queued admission: a fragment under its journaled
// sequence number, awaiting the engine's next round boundary.
type stagedAdmit struct {
	seq int
	fr  *dataset.Fragment
}

// NewSession starts the pipeline on ds with cfg; cfg.Source is replaced
// by the session's answer queue. The loop runs until the budget is
// exhausted, the context is cancelled, or Close is called. A non-nil
// opts.Checkpoint resumes the job from that warm checkpoint (beliefs,
// spend, stop votes and selection cache); cfg.Budget is then the job's
// total budget, of which the checkpoint's spend is already consumed.
func NewSession(ctx context.Context, ds *dataset.Dataset, cfg pipeline.Config, opts SessionOptions) (*Session, error) {
	c := opts.Checkpoint
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	ce, _ := ds.Split()
	if len(ce) == 0 {
		return nil, errors.New("server: no expert workers above theta")
	}
	metrics := opts.metrics
	if metrics == nil {
		metrics = NewMetrics()
	}
	runCtx, cancel := context.WithCancel(ctx)
	s := &Session{
		ds:           ds,
		experts:      ce,
		finished:     make(chan struct{}),
		cancel:       cancel,
		roundTimeout: opts.RoundTimeout,
		checkpoint:   c,
		journal:      opts.journal,
		costAware:    opts.CostAware,
		metrics:      metrics,
		logger:       opts.Logger,
	}
	cfg.Source = queueSource{s: s, ctx: runCtx}
	if cfg.BudgetWindow > 0 {
		// Streaming session: the engine polls the admission queue at every
		// round boundary and parks on it when the budget runs dry, instead
		// of ending the run. The preliminary-worker snapshot validates
		// fragments at accept time without touching the dataset the engine
		// goroutine is mutating.
		s.admitEnabled = true
		s.admitCh = make(chan struct{})
		s.prelimWorkers = make(map[string]bool, ds.Prelim.NumWorkers())
		for _, id := range ds.Prelim.WorkerIDs() {
			s.prelimWorkers[id] = true
		}
		cfg.Admit = sessionAdmit{s: s}
	}
	if opts.recovered != nil {
		s.resume(opts.recovered)
	}
	if s.journal != nil {
		// Commit every engine round to the journal — with the server's
		// round counter, so recovery restores ID monotonicity — before the
		// advisory OnCheckpoint hook runs. The counter is read under s.mu;
		// the append itself runs under the journal's own lock (Session.mu
		// is never held across journal I/O from this path).
		cfg.Journal = pipeline.RoundRecorderFunc(func(round int, ck *pipeline.Checkpoint) error {
			s.mu.Lock()
			next := s.nextID
			applied := s.appliedSeq
			s.mu.Unlock()
			return s.journal.commitRound(next, applied, ck)
		})
	}
	// The session's bundle taps the pipeline's per-round metrics; a
	// caller-provided sink still receives every record.
	if cfg.Metrics != nil {
		cfg.Metrics = pipeline.MultiMetrics{metrics, cfg.Metrics}
	} else {
		cfg.Metrics = metrics
	}
	// Capture every round's warm checkpoint so clients can persist the
	// session's progress (GET /checkpoint) and resume after a restart;
	// a caller-provided hook still runs.
	userHook := cfg.OnCheckpoint
	cfg.OnCheckpoint = func(ck *pipeline.Checkpoint) {
		s.mu.Lock()
		s.checkpoint = ck
		s.mu.Unlock()
		if userHook != nil {
			userHook(ck)
		}
	}
	go func() {
		defer close(s.finished)
		if opts.gate != nil {
			release, err := opts.gate(runCtx)
			if err != nil {
				s.mu.Lock()
				defer s.mu.Unlock()
				s.runErr = err
				s.closed = true
				return
			}
			defer release()
		}
		var res *pipeline.Result
		var err error
		switch {
		case s.costAware && c != nil:
			res, err = pipeline.ResumeCostAware(runCtx, ds, cfg, c)
		case s.costAware:
			res, err = pipeline.RunCostAware(runCtx, ds, cfg)
		case c != nil:
			res, err = pipeline.Resume(runCtx, ds, cfg, c)
		default:
			res, err = pipeline.Run(runCtx, ds, cfg)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if err == nil && len(s.replay) > 0 {
			// The journal promised more rounds than the rebuilt engine ran:
			// the recovery does not reproduce the interrupted run, and
			// trusting its labels would silently drop acknowledged answers.
			err = fmt.Errorf("server: recovery diverged: engine finished with %d journaled rounds unconsumed", len(s.replay))
			res = nil
		}
		s.result = res
		s.runErr = err
		s.closed = true
		if s.pending != nil {
			// Unblock any handler waiting on a round that will never
			// complete.
			s.pending = nil
		}
	}()
	return s, nil
}

// resume restores a recovered session's position from its parsed
// journal: the round counter, the round suffix the engine still owes,
// and the admission stream — the last journaled sequence, the sequence
// the checkpoint folded, the fragments past it (re-staged for the
// engine's admission source, which replays them at the journaled round
// boundaries), and whether the stream was finalized.
func (s *Session) resume(rec *recoveredSession) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID = rec.nextRound
	s.replay = rec.replay
	s.admitSeq = len(rec.admits)
	s.appliedSeq = rec.baseAdmitSeq
	s.admitFinal = rec.admitFinal
	for _, ar := range rec.admits {
		if ar.Fragment == nil {
			continue // a fragment-less final record only closes the stream
		}
		s.admitFrags++
		if ar.Seq > rec.baseAdmitSeq {
			s.admitQueue = append(s.admitQueue, stagedAdmit{seq: ar.Seq, fr: ar.Fragment})
		}
	}
}

// Metrics returns the session's instrument bundle (never nil); serve
// Metrics().Handler() at GET /metrics — the session's Handler already
// does.
func (s *Session) Metrics() *Metrics { return s.metrics }

// logf emits a round-transition line when a logger is configured.
func (s *Session) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// rejectAnswer counts a rejected answer under its reason and returns err.
func (s *Session) rejectAnswer(reason string, err error) error {
	s.metrics.answersRejected.With(reason).Inc()
	return err
}

// Checkpoint returns the latest warm checkpoint the loop produced, or nil
// before the first round completes. The value is immutable once emitted —
// the loop clones its state into each checkpoint — so callers may
// serialize it without holding any lock.
func (s *Session) Checkpoint() *pipeline.Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpoint
}

// queueSource adapts the session's answer queue to pipeline.AnswerSource.
type queueSource struct {
	s   *Session
	ctx context.Context
}

// Answers implements pipeline.AnswerSource: publish the queries to the
// round's panel (the experts the engine selected — the full expert set
// in the uniform loop, an assignment in the cost-aware one) and block
// until the round completes or the session ends.
func (q queueSource) Answers(experts crowd.Crowd, facts []int) (crowd.AnswerFamily, error) {
	round, err := q.s.publish(experts, facts)
	if err != nil {
		return nil, err
	}
	select {
	case <-round.done:
	case <-q.ctx.Done():
		return nil, q.ctx.Err()
	}
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	if q.s.jerr != nil {
		return nil, q.s.jerr
	}
	fam := make(crowd.AnswerFamily, 0, len(round.panel))
	for _, w := range round.panel {
		if as, ok := round.answers[w.ID]; ok {
			fam = append(fam, as)
		}
	}
	if len(fam) == 0 {
		return nil, fmt.Errorf("server: round %d completed with no answers", round.id)
	}
	q.s.pending = nil
	return fam, nil
}

// sessionAdmit adapts the session's admission queue to
// pipeline.AdmissionSource: the engine drains staged fragments at round
// boundaries and, when idle, parks on the admission channel until
// AdmitTasks wakes it (or the stream ends, or the session drains).
type sessionAdmit struct {
	s *Session
}

// Poll implements pipeline.AdmissionSource. During recovery replay the
// drain is capped at the next journaled round's admission sequence, so
// the engine re-plans every replayed round over exactly the dataset it
// was originally planned on.
func (a sessionAdmit) Poll(ctx context.Context, wait bool) ([]*dataset.Fragment, error) {
	s := a.s
	s.mu.Lock()
	for {
		if s.jerr != nil {
			err := s.jerr
			s.mu.Unlock()
			return nil, err
		}
		limit := int(^uint(0) >> 1) // MaxInt: no replay cap
		if len(s.replay) > 0 {
			limit = s.replay[0].AdmitSeq
		}
		n := 0
		for _, st := range s.admitQueue {
			if st.seq > limit {
				break
			}
			n++
		}
		if n > 0 {
			frags := make([]*dataset.Fragment, n)
			for i, st := range s.admitQueue[:n] {
				frags[i] = st.fr
			}
			s.appliedSeq = s.admitQueue[n-1].seq
			s.admitQueue = s.admitQueue[n:]
			s.mu.Unlock()
			return frags, nil
		}
		if !wait {
			s.mu.Unlock()
			return nil, nil
		}
		if s.admitFinal || s.draining || s.closed {
			// Stream over (finalized, draining, or the session ended):
			// report exhaustion so the engine finishes the run.
			s.mu.Unlock()
			return nil, nil
		}
		if len(s.replay) > 0 {
			// The engine ran dry with journaled rounds still unconsumed and
			// no admission it may fold before them: the journal promises
			// rounds this rebuild cannot re-plan.
			err := fmt.Errorf("server: recovery diverged: engine idle awaiting admissions with %d journaled rounds unconsumed", len(s.replay))
			s.mu.Unlock()
			return nil, err
		}
		ch := s.admitCh
		s.admitWaiting = true
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			s.mu.Lock()
			s.admitWaiting = false
			s.mu.Unlock()
			return nil, ctx.Err()
		}
		s.mu.Lock()
		s.admitWaiting = false
	}
}

// admitParked reports whether the engine is parked in the admission
// source awaiting new fragments — the quiescent point streaming drivers
// (and tests) key admissions on.
func (s *Session) admitParked() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitWaiting
}

// wakeAdmitLocked rouses an engine parked in sessionAdmit.Poll by
// rotating the admission channel. Callers hold s.mu.
func (s *Session) wakeAdmitLocked() {
	if s.admitCh != nil {
		close(s.admitCh)
		s.admitCh = make(chan struct{})
	}
}

// AdmitTasks stages a batch of fragments for the engine's next round
// boundary: each fragment is validated (structure plus answer-worker
// membership in the dataset's preliminary crowd), journaled, and queued;
// final marks the end of the admission stream, after which the engine
// finishes the run once the queue drains instead of parking for more.
// AdmitTasks(nil, true) closes the stream without admitting anything.
// The batch is atomic: it is fully validated before anything is
// journaled, and one fsync — on the batch's last record — covers it all.
func (s *Session) AdmitTasks(frs []*dataset.Fragment, final bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.draining {
		return ErrDraining
	}
	if !s.admitEnabled {
		return ErrNotStreaming
	}
	if s.admitFinal {
		return ErrStreamEnded
	}
	if s.jerr != nil {
		return s.jerr
	}
	if len(frs) == 0 && !final {
		return fmt.Errorf("%w: empty batch without final", ErrBadFragment)
	}
	for i, fr := range frs {
		if fr == nil {
			return fmt.Errorf("%w: fragment %d is null", ErrBadFragment, i)
		}
		if err := fr.Validate(); err != nil {
			return fmt.Errorf("%w: fragment %d: %v", ErrBadFragment, i, err)
		}
		for _, ans := range fr.Answers {
			if !s.prelimWorkers[ans.Worker] {
				return fmt.Errorf("%w: fragment %d: answer from %q, not a preliminary worker", ErrBadFragment, i, ans.Worker)
			}
		}
	}
	if s.journal != nil {
		// Durability before acknowledgement, like Answer: every fragment
		// gets its own record (so recovery replays admissions in order),
		// but only the batch's last record forces the fsync.
		for i, fr := range frs {
			last := i == len(frs)-1
			if err := s.journal.taskAdmitted(s.admitSeq+i+1, final && last, fr, last); err != nil {
				s.journalFailLocked(err)
				return s.jerr
			}
		}
		if len(frs) == 0 {
			// Final-only close: a fragment-less record carries the flag.
			if err := s.journal.taskAdmitted(s.admitSeq+1, true, nil, true); err != nil {
				s.journalFailLocked(err)
				return s.jerr
			}
		}
	}
	for _, fr := range frs {
		s.admitSeq++
		s.admitQueue = append(s.admitQueue, stagedAdmit{seq: s.admitSeq, fr: fr})
		s.admitFrags++
	}
	if len(frs) == 0 {
		s.admitSeq++ // the fragment-less final record still consumes a sequence number
	}
	if final {
		s.admitFinal = true
	}
	s.metrics.tasksAdmitted.Add(float64(len(frs)))
	s.wakeAdmitLocked()
	s.logf("admitted %d fragment(s), final=%v (seq %d)", len(frs), final, s.admitSeq)
	return nil
}

// panelIDs lists a panel's worker IDs in panel order.
func panelIDs(panel crowd.Crowd) []string {
	ids := make([]string, len(panel))
	for i, w := range panel {
		ids[i] = w.ID
	}
	return ids
}

// publish installs a new pending round — or, while a recovered session
// still owes the engine journaled rounds, validates and replays the next
// one instead of going live.
func (s *Session) publish(panel crowd.Crowd, facts []int) (*pendingRound, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sorted := append([]int{}, facts...)
	sort.Ints(sorted)
	if len(s.replay) > 0 {
		return s.replayRoundLocked(panel, sorted)
	}
	if s.jerr != nil {
		return nil, s.jerr
	}
	s.nextID++
	round := &pendingRound{
		id:      s.nextID,
		facts:   sorted,
		panel:   panel,
		answers: make(map[string]crowd.AnswerSet, len(panel)),
		done:    make(chan struct{}),
	}
	if s.journal != nil {
		// Appended but not synced: a torn round-open record just re-plans
		// deterministically at recovery, and any later answer's fsync
		// carries it to disk first (appends are ordered).
		if err := s.journal.roundOpened(round.id, sorted, panelIDs(panel), s.appliedSeq); err != nil {
			s.journalFailLocked(err)
			return nil, s.jerr
		}
	}
	s.pending = round
	if s.roundTimeout > 0 {
		time.AfterFunc(s.roundTimeout, func() { s.expireRound(round) })
	}
	s.metrics.roundsPublished.Inc()
	s.logf("round %d published: %d facts, awaiting %d experts", round.id, len(sorted), len(panel))
	return round, nil
}

// replayRoundLocked republishes the next journaled round during
// recovery: the engine's re-planned round must match the journal
// byte-for-byte (same facts, same panel — the engine is deterministic,
// so anything else means the journal and the code disagree and the
// session must fail rather than relabel), and the journaled answers are
// injected through the same AnswerSet validation live answers get,
// without being re-journaled.
func (s *Session) replayRoundLocked(panel crowd.Crowd, sortedFacts []int) (*pendingRound, error) {
	rr := s.replay[0]
	s.replay = s.replay[1:]
	if !slices.Equal(sortedFacts, rr.Facts) || !slices.Equal(panelIDs(panel), rr.Panel) {
		return nil, fmt.Errorf("server: recovery diverged: engine re-planned round %d with different facts or panel than journaled", rr.Round)
	}
	if rr.AdmitSeq != s.appliedSeq {
		// The journal says this round was planned over the dataset as of
		// admission rr.AdmitSeq, but the rebuilt engine folded a different
		// prefix — the round's facts could only match by coincidence.
		return nil, fmt.Errorf("server: recovery diverged: round %d journaled at admission seq %d, engine replayed it at %d", rr.Round, rr.AdmitSeq, s.appliedSeq)
	}
	s.nextID = rr.Round
	round := &pendingRound{
		id:      rr.Round,
		facts:   sortedFacts,
		panel:   panel,
		answers: make(map[string]crowd.AnswerSet, len(panel)),
		done:    make(chan struct{}),
	}
	for _, a := range rr.Answers {
		w, ok := panel.ByID(a.Worker)
		if !ok {
			return nil, fmt.Errorf("server: recovery diverged: journaled answer from %s, not on round %d's panel", a.Worker, rr.Round)
		}
		as := crowd.AnswerSet{
			Worker: w,
			Facts:  append([]int{}, sortedFacts...),
			Values: append([]bool{}, a.Values...),
		}
		if err := as.Validate(); err != nil {
			return nil, fmt.Errorf("server: recovery: journaled answer from %s in round %d: %w", a.Worker, rr.Round, err)
		}
		round.answers[a.Worker] = as
	}
	if s.journal != nil {
		s.journal.ins.replayed.Add(float64(len(rr.Answers)))
	}
	s.pending = round
	if rr.Sealed {
		// Already sealed in the journal — complete it without journaling a
		// second seal record.
		round.complete = true
		close(round.done)
	} else if len(round.answers) == len(panel) {
		// Full panel but the seal record was lost in the crash; seal (and
		// journal) it now so the record grammar (no checkpoint over an open
		// round) holds for the next recovery.
		s.sealRoundLocked(round)
	} else if s.roundTimeout > 0 {
		time.AfterFunc(s.roundTimeout, func() { s.expireRound(round) })
	}
	s.logf("round %d replayed from journal: %d/%d answers, sealed=%v", rr.Round, len(round.answers), len(panel), round.complete)
	return round, nil
}

// journalFailLocked records the first journal failure and fails the
// session: the error sticks, the open round is closed so the engine
// wakes, and queueSource surfaces the error to the engine, which aborts
// the run. Callers hold s.mu.
func (s *Session) journalFailLocked(err error) {
	if s.jerr != nil {
		return
	}
	s.jerr = fmt.Errorf("server: journal: %w", err)
	s.logf("journal failure, failing session: %v", err)
	if s.pending != nil && !s.pending.complete {
		s.pending.complete = true
		close(s.pending.done)
	}
}

// sealRoundLocked completes a round: the seal is journaled (fsynced)
// before the engine is woken, so a timeout-sealed partial round recovers
// as exactly that partial round. Idempotent — a round seals exactly once
// no matter how many paths race to it (full panel, timeout, replay), so
// the journal never carries a duplicate seal record and done is never
// double-closed. Callers hold s.mu and count their own metrics
// (completed vs expired).
func (s *Session) sealRoundLocked(round *pendingRound) {
	if round.complete {
		return
	}
	round.complete = true
	if s.journal != nil && s.jerr == nil {
		if err := s.journal.roundSealed(round.id, len(round.answers)); err != nil {
			s.journalFailLocked(err)
		}
	}
	close(round.done)
}

// expireRound closes a round at its deadline if it gathered at least one
// answer; an unanswered round stays open (and the timer re-arms) so the
// loop never consumes empty evidence.
func (s *Session) expireRound(round *pendingRound) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending != round || round.complete || s.closed {
		return
	}
	if len(round.answers) == 0 {
		time.AfterFunc(s.roundTimeout, func() { s.expireRound(round) })
		return
	}
	s.sealRoundLocked(round)
	s.metrics.roundsExpired.Inc()
	s.logf("round %d expired: proceeding with %d/%d answers", round.id, len(round.answers), len(round.panel))
}

// Queries returns the open round for the given expert: the round ID and
// the facts still needing the expert's answers. ok is false when there is
// no open round, the round already completed, the worker is not an
// expert, or the worker has already answered.
func (s *Session) Queries(workerID string) (roundID int, facts []int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil || s.closed || s.draining {
		return 0, nil, false
	}
	if s.pending.complete {
		// Between the round completing (full panel or timeout) and the
		// loop consuming it, the round is closed: advertising it would
		// solicit answers that Answer must reject.
		return 0, nil, false
	}
	if _, isExpert := s.experts.ByID(workerID); !isExpert {
		return 0, nil, false
	}
	if _, onPanel := s.pending.panel.ByID(workerID); !onPanel {
		return 0, nil, false
	}
	if _, answered := s.pending.answers[workerID]; answered {
		return 0, nil, false
	}
	return s.pending.id, append([]int{}, s.pending.facts...), true
}

// Answer records one expert's answers to the open round. The values must
// be parallel to the round's fact list (ascending global fact order). A
// round that already completed — by full panel or by timeout — rejects
// further answers with ErrRoundClosed: the completed family is what the
// pipeline consumes, and it must not depend on whether a straggler beat
// the loop to the lock.
func (s *Session) Answer(roundID int, workerID string, values []bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.rejectAnswer("session_closed", ErrClosed)
	}
	if s.draining {
		return s.rejectAnswer("draining", ErrDraining)
	}
	if s.pending == nil || s.pending.id != roundID {
		return s.rejectAnswer("not_open", fmt.Errorf("server: round %d is not open", roundID))
	}
	if s.pending.complete {
		s.logf("round %d rejected straggler answer from %s: round closed", roundID, workerID)
		return s.rejectAnswer("round_closed",
			fmt.Errorf("%w: round %d already completed", ErrRoundClosed, roundID))
	}
	w, isExpert := s.experts.ByID(workerID)
	if !isExpert {
		return s.rejectAnswer("not_expert", fmt.Errorf("server: %q is not an expert worker", workerID))
	}
	if _, onPanel := s.pending.panel.ByID(workerID); !onPanel {
		return s.rejectAnswer("not_panelist",
			fmt.Errorf("server: %s is not on round %d's panel", workerID, roundID))
	}
	if _, dup := s.pending.answers[workerID]; dup {
		return s.rejectAnswer("duplicate", fmt.Errorf("server: %s already answered round %d", workerID, roundID))
	}
	if len(values) != len(s.pending.facts) {
		return s.rejectAnswer("arity",
			fmt.Errorf("server: round %d needs %d answers, got %d", roundID, len(s.pending.facts), len(values)))
	}
	as := crowd.AnswerSet{
		Worker: w,
		Facts:  append([]int{}, s.pending.facts...),
		Values: append([]bool{}, values...),
	}
	if err := as.Validate(); err != nil {
		return s.rejectAnswer("invalid", err)
	}
	if s.journal != nil && s.jerr == nil {
		// Durability before acknowledgement: the answer is fsynced into
		// the journal before it is recorded or confirmed, so no accepted
		// answer can be lost to a crash.
		if err := s.journal.answerAccepted(roundID, workerID, values); err != nil {
			s.journalFailLocked(err)
			return s.rejectAnswer("journal", s.jerr)
		}
	}
	s.pending.answers[workerID] = as
	s.metrics.answersAccepted.Inc()
	if len(s.pending.answers) == len(s.pending.panel) {
		s.sealRoundLocked(s.pending)
		s.metrics.roundsCompleted.Inc()
		s.logf("round %d complete: all %d panelists answered", roundID, len(s.pending.panel))
	}
	return nil
}

// Status describes the session's progress.
type Status struct {
	Done        bool     `json:"done"`
	Draining    bool     `json:"draining,omitempty"`
	Rounds      int      `json:"rounds"`
	BudgetSpent float64  `json:"budget_spent"`
	Quality     float64  `json:"quality"`
	Accuracy    *float64 `json:"accuracy,omitempty"`
	OpenRound   int      `json:"open_round,omitempty"`
	OpenFacts   []int    `json:"open_facts,omitempty"`
	Error       string   `json:"error,omitempty"`
	// Streaming admission (sessions created with a budget window).
	Streaming         bool `json:"streaming,omitempty"`
	AdmittedFragments int  `json:"admitted_fragments,omitempty"`
	PendingFragments  int  `json:"pending_fragments,omitempty"`
	StreamEnded       bool `json:"stream_ended,omitempty"`
}

// Status reports progress; final numbers come from the pipeline result
// once the run ends.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{Done: s.closed, Draining: s.draining}
	if s.admitEnabled {
		st.Streaming = true
		st.AdmittedFragments = s.admitFrags
		st.PendingFragments = len(s.admitQueue)
		st.StreamEnded = s.admitFinal
	}
	if s.pending != nil {
		st.OpenRound = s.pending.id
		st.OpenFacts = append([]int{}, s.pending.facts...)
	}
	if s.result != nil {
		st.Rounds = len(s.result.Rounds)
		st.BudgetSpent = s.result.BudgetSpent
		st.Quality = s.result.Quality
		acc := s.result.Accuracy
		st.Accuracy = &acc
	}
	if s.runErr != nil {
		st.Error = s.runErr.Error()
	}
	return st
}

// Experts lists the expert worker IDs clients may answer as.
func (s *Session) Experts() []string {
	ids := make([]string, len(s.experts))
	for i, w := range s.experts {
		ids[i] = w.ID
	}
	return ids
}

// Wait blocks until the pipeline finishes and returns its result.
func (s *Session) Wait(ctx context.Context) (*pipeline.Result, error) {
	select {
	case <-s.finished:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.result, s.runErr
}

// Close cancels the run.
func (s *Session) Close() {
	s.cancel()
	<-s.finished
}

// beginDrain puts the session into graceful-shutdown mode: Answer
// rejects new answers with ErrDraining and Queries stops advertising the
// open round. A round that already completed (full panel or timeout) is
// still consumed by the engine — that is the progress Drain preserves.
// Idempotent.
func (s *Session) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		// A streaming engine may be parked awaiting admissions; wake it so
		// it observes the drain and finishes the run (its journal and
		// checkpoint survive for a later recovery to resume the stream).
		s.wakeAdmitLocked()
		s.logf("session draining: rejecting new answers")
	}
}

// engineParked reports whether the engine can make no further progress
// without answers that draining forbids: it finished, or it is blocked
// on a round that is not complete. Between a round completing and the
// engine consuming it (belief update, checkpoint emission, next publish)
// this is false — that window is exactly what Drain waits out.
func (s *Session) engineParked() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || (s.pending != nil && !s.pending.complete)
}

// Drain gracefully stops the session: reject new answers, wait for the
// engine to consume any in-flight completed round (so its belief updates
// and checkpoint are not lost), then cancel the run. It returns the last
// warm checkpoint the engine emitted — after a clean drain that includes
// every completed round — or nil if no round ever completed. On ctx
// expiry the session is cancelled anyway and the checkpoint reflects
// whatever the engine had emitted by then.
//
// Progress granularity is the engine round: answers of a round that had
// not completed when the drain began are not applied (they were never
// part of a consumed family), and with per-round timeouts a partial
// round that would have expired later is cut at the drain instead.
func (s *Session) Drain(ctx context.Context) (*pipeline.Checkpoint, error) {
	s.beginDrain()
	var err error
	for !s.engineParked() {
		select {
		case <-s.finished:
		case <-ctx.Done():
			err = ctx.Err()
		case <-time.After(2 * time.Millisecond):
			continue
		}
		break
	}
	s.Close()
	return s.Checkpoint(), err
}
