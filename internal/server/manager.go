package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/journal"
	"hcrowd/internal/obsv"
	"hcrowd/internal/pipeline"
)

// ErrManagerDraining is returned when creating a session (or when a
// queued session's gate fires) after the manager began its graceful
// drain: the service is shutting down and admits no new work.
var ErrManagerDraining = errors.New("server: manager draining")

// ErrDuplicateSession is returned when creating a session under an ID
// that is already registered.
var ErrDuplicateSession = errors.New("server: duplicate session")

// ErrUnknownSession is returned when addressing a session ID the
// manager does not know (never created, or already evicted).
var ErrUnknownSession = errors.New("server: unknown session")

// ErrNotJournaled is returned when a cluster handoff addresses a
// session that has no write-ahead journal: without one there is no
// self-contained state image to stream to the new owner.
var ErrNotJournaled = errors.New("server: session has no journal")

// SessionState is a managed session's lifecycle phase.
//
//	queued    -> created, waiting for a concurrency slot
//	running   -> the pipeline engine is executing
//	done      -> the engine finished cleanly (labels available)
//	failed    -> the engine returned an error
//	cancelled -> the run was cancelled (DELETE, drain, or context)
type SessionState string

const (
	StateQueued    SessionState = "queued"
	StateRunning   SessionState = "running"
	StateDone      SessionState = "done"
	StateFailed    SessionState = "failed"
	StateCancelled SessionState = "cancelled"
)

// finished reports whether the state is terminal (eviction-eligible).
func (st SessionState) finished() bool {
	return st == StateDone || st == StateFailed || st == StateCancelled
}

// sessionIDPattern validates caller-chosen session names. The character
// set is deliberately filename- and URL-safe: IDs appear in route paths
// and in checkpoint filenames.
var sessionIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// managedSession is the manager's per-session record.
type managedSession struct {
	id     string
	s      *Session
	routes http.Handler // the session's route set, rooted at "/"
	seq    int          // creation order (List order)

	// journal is the session's write-ahead log (nil for unjournaled
	// sessions); the watcher closes it when the engine finishes.
	journal *sessionJournal

	// Guarded by Manager.mu — a cross-struct guard, which is outside
	// //hclint:guardedby's sibling-field grammar, so these rely on
	// review plus -race rather than lock-discipline.
	state  SessionState
	finSeq int // finish order; eviction removes the oldest-finished first
	// retire marks the journal file for deletion once the session ends:
	// set by an explicit Cancel (the caller discarded the job). Drained
	// and failed sessions keep their journals so a restart resumes them.
	retire bool
	// pinned exempts the session from retention eviction: set for the
	// duration of a cluster handoff, where evicting (and retiring the
	// journal of) the session mid-transfer would destroy the only copy
	// of its state before the target replica acknowledged it.
	pinned bool
}

// ManagerOptions configures a session manager.
type ManagerOptions struct {
	// MaxRunning bounds the number of pipeline engines executing
	// simultaneously; sessions beyond it sit queued (publishing no
	// rounds) until a slot frees up. 0 means unbounded.
	MaxRunning int
	// Retention is how many finished sessions (done, failed or
	// cancelled) to keep for inspection; once exceeded, the
	// oldest-finished are evicted — their entry, routes and per-session
	// metric labels removed. 0 keeps every finished session forever.
	Retention int
	// CheckpointDir, when set, receives one final checkpoint per session
	// ("<id>.ckpt.json", written atomically) during Drain.
	CheckpointDir string
	// JournalDir, when set, makes request-created sessions durable: each
	// session appends its history ("<id>.journal", fsynced at every
	// acknowledgement) to a write-ahead log, and Recover rebuilds live
	// sessions from those logs after a crash or restart. Only sessions
	// created through CreateFromRequest (the HTTP create path) are
	// journaled — the creation payload is the recovery recipe.
	JournalDir string
	// CompactEvery folds a session's journal into its latest checkpoint
	// record after that many round commits, bounding log growth. 0 uses
	// the default (8); negative disables compaction.
	CompactEvery int
	// Logger receives manager and session lifecycle lines; nil silences
	// them.
	Logger *log.Logger
	// BaseContext is the context sessions run on — NOT the per-request
	// context, so an HTTP client disconnecting never kills a labeling
	// job. Defaults to context.Background(); shutdown goes through Drain.
	BaseContext context.Context
}

// Manager is a registry of concurrent labeling sessions behind one HTTP
// surface. It creates sessions from JSON payloads (POST /v1/sessions),
// bounds how many engines run at once, evicts old finished sessions,
// and drains everything to checkpoints on shutdown. The zero value is
// not usable; call NewManager.
type Manager struct {
	opts    ManagerOptions
	baseCtx context.Context
	metrics *ManagerMetrics
	logger  *log.Logger
	handler http.Handler

	// sem holds one token per running engine when MaxRunning > 0.
	sem chan struct{}
	// drainCh is closed when Drain begins so queued gates reject instead
	// of starting engines mid-shutdown.
	drainCh chan struct{}

	// handoffMu serializes AcceptHandoff's check-then-land sequence so
	// two concurrent transfers of the same session cannot both pass the
	// existence checks and rename over each other's journal.
	handoffMu sync.Mutex

	mu       sync.Mutex
	sessions map[string]*managedSession //hclint:guardedby mu
	// order is the creation-order registry walked by List and eviction.
	order    []*managedSession //hclint:guardedby mu
	nextSeq  int               //hclint:guardedby mu
	nextID   int               //hclint:guardedby mu
	finSeq   int               //hclint:guardedby mu
	draining bool              //hclint:guardedby mu
}

// NewManager builds a manager; see ManagerOptions for the knobs.
func NewManager(opts ManagerOptions) *Manager {
	m := &Manager{
		opts:     opts,
		baseCtx:  opts.BaseContext,
		metrics:  NewManagerMetrics(),
		logger:   opts.Logger,
		drainCh:  make(chan struct{}),
		sessions: make(map[string]*managedSession),
	}
	if m.baseCtx == nil {
		m.baseCtx = context.Background()
	}
	if opts.MaxRunning > 0 {
		m.sem = make(chan struct{}, opts.MaxRunning)
	}
	m.handler = m.buildHandler()
	return m
}

// Metrics returns the manager's instrument bundle: its own HTTP traffic
// (under manager_*), session-state gauges and cluster counters. Each
// session's figures stay in its own bundle (Session.Metrics).
func (m *Manager) Metrics() *ManagerMetrics { return m.metrics }

func (m *Manager) logf(format string, args ...any) {
	if m.logger != nil {
		m.logger.Printf(format, args...)
	}
}

// Create registers and starts a new session running on the manager's
// base context. id may be empty (one is generated); otherwise it must
// match [A-Za-z0-9._-]{1,64} and be unused. The session's engine starts
// only once the manager's concurrency gate admits it; until then it is
// queued and publishes no rounds. cfg.Source is replaced by the
// session's answer queue (as in NewSession); any cfg.Metrics sink still
// receives every round record, alongside the session's own bundle.
func (m *Manager) Create(id string, ds *dataset.Dataset, cfg pipeline.Config, opts SessionOptions) (string, *Session, error) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return "", nil, ErrManagerDraining
	}
	if id == "" {
		for {
			m.nextID++
			id = fmt.Sprintf("s%d", m.nextID)
			if _, taken := m.sessions[id]; !taken {
				break
			}
		}
	} else if !sessionIDPattern.MatchString(id) {
		m.mu.Unlock()
		return "", nil, fmt.Errorf("server: invalid session id %q (want %s)", id, sessionIDPattern)
	} else if _, taken := m.sessions[id]; taken {
		m.mu.Unlock()
		return "", nil, fmt.Errorf("%w: %q", ErrDuplicateSession, id)
	}
	m.mu.Unlock()

	// Attach a fresh write-ahead journal when the manager is durable and
	// the session came in through the HTTP create path (journalReq is the
	// recovery recipe). Recovered sessions arrive with opts.journal
	// already set and skip this.
	var freshJournal *sessionJournal
	if m.opts.JournalDir != "" && opts.journal == nil && opts.journalReq != nil {
		if opts.metrics == nil {
			opts.metrics = NewMetrics()
		}
		j, err := m.newJournal(id, opts.journalReq, opts.metrics.journal)
		if err != nil {
			return "", nil, fmt.Errorf("server: journal %s: %w", id, err)
		}
		opts.journal = j
		freshJournal = j
	}
	// A failed construction must not leave a fresh journal behind — the
	// create never succeeded, so there is nothing to recover.
	discardFresh := func() {
		if freshJournal == nil {
			return
		}
		if err := retireJournal(freshJournal.path(), freshJournal.close); err != nil {
			m.logf("manager: session %s journal discard: %v", id, err)
		}
	}

	ms := &managedSession{id: id, state: StateQueued, journal: opts.journal}
	if opts.Logger == nil {
		opts.Logger = m.logger
	}
	opts.gate = m.gate(ms)
	s, err := NewSession(m.baseCtx, ds, cfg, opts)
	if err != nil {
		discardFresh()
		return "", nil, err
	}
	ms.s = s
	if err := m.register(ms); err != nil {
		s.Close()
		discardFresh()
		return "", nil, err
	}
	m.logf("manager: session %s created (%d facts, budget %.0f)", id, ds.NumFacts(), cfg.Budget)
	return id, s, nil
}

// defaultCompactEvery is how many round commits a journal accumulates
// before folding into its latest checkpoint when CompactEvery is 0.
const defaultCompactEvery = 8

// compactEvery resolves the manager's compaction cadence.
func (m *Manager) compactEvery() int {
	switch {
	case m.opts.CompactEvery > 0:
		return m.opts.CompactEvery
	case m.opts.CompactEvery < 0:
		return 0 // disabled
	default:
		return defaultCompactEvery
	}
}

// newJournal creates a session's write-ahead log and commits the
// creation record — the ack point of the create — before the session is
// allowed to exist. req.Name is pinned to the resolved ID so recovery
// recreates the session under the same name (round IDs, routes, and
// checkpoint files all key on it).
func (m *Manager) newJournal(id string, req *CreateSessionRequest, ins *journalInstruments) (*sessionJournal, error) {
	if err := os.MkdirAll(m.opts.JournalDir, 0o755); err != nil {
		return nil, err
	}
	req.Name = id
	created, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(m.opts.JournalDir, id+".journal")
	w, err := journal.Create(path)
	if err != nil {
		return nil, err
	}
	j := newSessionJournal(w, created, nil, m.compactEvery(), ins)
	if err := j.logCreated(); err != nil {
		if rerr := retireJournal(path, j.close); rerr != nil {
			m.logf("manager: journal %s discard: %v", id, rerr)
		}
		return nil, err
	}
	return j, nil
}

// retireJournal deletes the journal file at path, first calling closer
// when it is non-nil. A file that is already gone counts as deleted; any
// other close or remove error is returned for the caller to log or
// return.
func retireJournal(path string, closer func() error) error {
	var cerr error
	if closer != nil {
		cerr = closer()
	}
	rerr := os.Remove(path)
	if errors.Is(rerr, os.ErrNotExist) {
		rerr = nil
	}
	return errors.Join(cerr, rerr)
}

// Recover scans JournalDir and rebuilds every journaled session: the
// creation record supplies the dataset and config, the newest journaled
// checkpoint warm-starts the engine, and the round suffix past it is
// replayed through the regular answer path — so a recovered session is
// indistinguishable from one that was never interrupted. Unreadable or
// structurally invalid journals fail recovery loudly (the error names
// the file) rather than silently dropping acknowledged answers; empty
// journals (created but never acknowledged) are discarded. Returns the
// recovered session IDs. Call before serving traffic and before
// creating any sessions, so recovered sessions reclaim their IDs.
func (m *Manager) Recover() ([]string, error) {
	if m.opts.JournalDir == "" {
		return nil, errors.New("server: recover: no JournalDir configured")
	}
	if err := os.MkdirAll(m.opts.JournalDir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(m.opts.JournalDir)
	if err != nil {
		return nil, err
	}
	var recovered []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".journal") {
			continue
		}
		path := filepath.Join(m.opts.JournalDir, e.Name())
		id, err := m.recoverOne(path)
		if err != nil {
			return recovered, fmt.Errorf("server: recover %s: %w", path, err)
		}
		if id != "" {
			recovered = append(recovered, id)
			m.metrics.sessionsRecovered.Inc()
			m.logf("manager: session %s recovered from %s", id, path)
		}
	}
	return recovered, nil
}

// recoverOne rebuilds one session from its journal; returns "" for an
// empty journal (discarded, nothing was ever acknowledged).
func (m *Manager) recoverOne(path string) (string, error) {
	w, recs, err := journal.Open(path)
	if err != nil {
		return "", err
	}
	if len(recs) == 0 {
		// The create this journal belonged to never returned success, so
		// no client was promised anything.
		return "", retireJournal(path, w.Close)
	}
	closeOnErr := func() {
		if cerr := w.Close(); cerr != nil {
			m.logf("manager: journal %s close: %v", path, cerr)
		}
	}
	state, err := parseJournal(recs)
	if err != nil {
		closeOnErr()
		return "", err
	}
	if state.req.Name == "" {
		closeOnErr()
		return "", errors.New("created record has no session name")
	}
	ds, cfg, opts, err := buildFromRequest(state.req)
	if err != nil {
		closeOnErr()
		return "", err
	}
	if state.base != nil {
		// The journaled checkpoint supersedes any checkpoint embedded in
		// the original create payload: it is strictly newer.
		cfg.From = state.base
	}
	if len(state.admits) > 0 && cfg.BudgetWindow <= 0 {
		closeOnErr()
		return "", errors.New("journal has task admissions but the creation config carries no budget window")
	}
	// Streaming sessions: admissions the checkpoint already folded are
	// re-applied to the dataset (the checkpoint's beliefs and selection
	// cache were taken over the grown dataset, and the engine resumes on
	// it); their budget-window refills — which admitAll granted in the
	// original run — are folded into the base budget. The session itself
	// re-stages the admissions past the checkpoint (Session.resume).
	folded := 0
	for _, ar := range state.admits {
		if ar.Fragment == nil || ar.Seq > state.baseAdmitSeq {
			continue
		}
		if _, _, err := ds.Admit(ar.Fragment); err != nil {
			closeOnErr()
			return "", fmt.Errorf("re-admit journaled fragment %d: %w", ar.Seq, err)
		}
		folded++
	}
	cfg.Budget += float64(folded) * cfg.BudgetWindow
	opts.metrics = NewMetrics()
	opts.journal = newSessionJournal(w, recs[0].Payload, state.admitRaw, m.compactEvery(), opts.metrics.journal)
	opts.recovered = state
	id, _, err := m.Create(state.req.Name, ds, cfg, opts)
	if err != nil {
		closeOnErr()
		return "", err
	}
	return id, nil
}

// register installs the record, builds its route set and starts the
// watcher that classifies the terminal state.
func (m *Manager) register(ms *managedSession) error {
	ms.routes = sessionRoutes(ms.s, m.logger)
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return ErrManagerDraining
	}
	if _, taken := m.sessions[ms.id]; taken {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicateSession, ms.id)
	}
	m.nextSeq++
	ms.seq = m.nextSeq
	m.sessions[ms.id] = ms
	m.order = append(m.order, ms)
	m.metrics.sessionsCreated.Inc()
	m.updateStateGaugesLocked()
	m.mu.Unlock()
	go m.watch(ms)
	return nil
}

// gate builds the session's admission gate: acquire a concurrency slot
// (when bounded), flip queued -> running, and release the slot when the
// engine returns. A drain that begins while the session is still queued
// rejects it with ErrManagerDraining — the watcher records it as
// cancelled.
func (m *Manager) gate(ms *managedSession) func(context.Context) (func(), error) {
	return func(ctx context.Context) (func(), error) {
		if m.sem != nil {
			select {
			case m.sem <- struct{}{}:
			case <-m.drainCh:
				return nil, ErrManagerDraining
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		} else {
			select {
			case <-m.drainCh:
				return nil, ErrManagerDraining
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
		}
		m.setState(ms, StateRunning)
		m.logf("manager: session %s running", ms.id)
		return func() {
			if m.sem != nil {
				<-m.sem
			}
		}, nil
	}
}

func (m *Manager) setState(ms *managedSession, st SessionState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms.state = st
	m.updateStateGaugesLocked()
}

// watch waits for the session's engine to return, classifies the
// terminal state from its error, and applies the retention policy.
func (m *Manager) watch(ms *managedSession) {
	<-ms.s.finished
	ms.s.mu.Lock()
	err := ms.s.runErr
	ms.s.mu.Unlock()
	state := StateDone
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, context.Canceled) || errors.Is(err, ErrManagerDraining):
		state = StateCancelled
	default:
		state = StateFailed
	}
	m.mu.Lock()
	ms.state = state
	m.finSeq++
	ms.finSeq = m.finSeq
	retire := ms.retire
	evicted := m.evictLocked()
	draining := m.draining
	m.updateStateGaugesLocked()
	m.mu.Unlock()
	if ms.journal != nil {
		// The engine has returned, so nothing appends anymore. The file
		// stays on disk — done/failed/drained sessions all recover on the
		// next start — unless an explicit Cancel retired the job.
		if retire {
			if rerr := retireJournal(ms.journal.path(), ms.journal.close); rerr != nil {
				m.logf("manager: session %s journal retire: %v", ms.id, rerr)
			} else {
				m.logf("manager: session %s journal retired", ms.id)
			}
		} else if cerr := ms.journal.close(); cerr != nil {
			m.logf("manager: session %s journal close: %v", ms.id, cerr)
		}
	}
	if err != nil {
		m.logf("manager: session %s %s: %v", ms.id, state, err)
	} else {
		m.logf("manager: session %s done", ms.id)
	}
	for _, ems := range evicted {
		m.logf("manager: session %s evicted (retention %d)", ems.id, m.opts.Retention)
		if ems.journal == nil {
			continue
		}
		// Eviction is the end of the session's retention, so its journal
		// retires with it — otherwise the next restart's Recover would
		// resurrect sessions the policy already discarded, and the journal
		// dir would grow without bound. The one exception is a drain:
		// there, journals are the mechanism by which sessions survive the
		// restart, so eviction (of sessions the drain is cancelling) must
		// not destroy them.
		if draining {
			continue
		}
		if rerr := retireJournal(ems.journal.path(), nil); rerr != nil {
			m.logf("manager: session %s journal retire (evicted): %v", ems.id, rerr)
		} else {
			m.logf("manager: session %s journal retired (evicted)", ems.id)
		}
	}
}

// evictLocked drops the oldest-finished sessions beyond the retention
// cap and returns their records (the caller retires their journals
// outside the lock). Running, queued and handoff-pinned sessions are
// never evicted. Callers hold m.mu.
func (m *Manager) evictLocked() []*managedSession {
	if m.opts.Retention <= 0 {
		return nil
	}
	var finished []*managedSession
	for _, ms := range m.order {
		if ms.state.finished() && !ms.pinned {
			finished = append(finished, ms)
		}
	}
	if len(finished) <= m.opts.Retention {
		return nil
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].finSeq < finished[j].finSeq })
	evicted := finished[:len(finished)-m.opts.Retention]
	for _, ms := range evicted {
		m.unregisterLocked(ms)
		m.metrics.sessionsEvicted.Inc()
	}
	return evicted
}

// unregisterLocked removes a session from the registry and the List
// order (and so its numbers from GET /v1/metrics). Callers hold m.mu.
func (m *Manager) unregisterLocked(ms *managedSession) {
	delete(m.sessions, ms.id)
	if i := slices.Index(m.order, ms); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
}

// updateStateGaugesLocked recomputes the per-state session gauge from
// the registry. Callers hold m.mu.
func (m *Manager) updateStateGaugesLocked() {
	counts := map[SessionState]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
	}
	for _, ms := range m.order {
		counts[ms.state]++
	}
	for st, n := range counts {
		m.metrics.sessionsByState.With(string(st)).Set(float64(n))
	}
}

// SessionInfo is one session's row in GET /v1/sessions.
type SessionInfo struct {
	ID     string       `json:"id"`
	State  SessionState `json:"state"`
	Status Status       `json:"status"`
}

// Get returns a session by ID.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	ms, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	return ms.s, true
}

// SessionHandler returns one session's route set rooted at "/" — the
// same handler the manager serves under /v1/sessions/{id}/. hcserve
// mounts the default session's routes at the server root with it, so
// the root routes and the /v1 API address the same session.
func (m *Manager) SessionHandler(id string) (http.Handler, bool) {
	m.mu.Lock()
	ms, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	return ms.routes, true
}

// Info returns one session's info row.
func (m *Manager) Info(id string) (SessionInfo, bool) {
	m.mu.Lock()
	ms, ok := m.sessions[id]
	var state SessionState
	if ok {
		state = ms.state
	}
	m.mu.Unlock()
	if !ok {
		return SessionInfo{}, false
	}
	return SessionInfo{ID: id, State: state, Status: ms.s.Status()}, true
}

// List returns every registered session in creation order.
func (m *Manager) List() []SessionInfo {
	m.mu.Lock()
	snapshot := make([]*managedSession, len(m.order))
	copy(snapshot, m.order)
	states := make([]SessionState, len(snapshot))
	for i, ms := range snapshot {
		states[i] = ms.state
	}
	m.mu.Unlock()
	infos := make([]SessionInfo, len(snapshot))
	for i, ms := range snapshot {
		infos[i] = SessionInfo{ID: ms.id, State: states[i], Status: ms.s.Status()}
	}
	return infos
}

// Cancel stops a session's run (its state becomes cancelled; the entry
// stays listed until retention evicts it). Cancelling a journaled
// session retires its journal: the caller discarded the job, so it must
// not resurrect at the next restart — unlike a drain, which keeps every
// journal precisely so sessions resume.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	ms, ok := m.sessions[id]
	var retireNow *sessionJournal
	if ok {
		if ms.state.finished() {
			// The watcher already ran (and closed the journal); retire the
			// file directly.
			retireNow = ms.journal
		} else {
			ms.retire = true
		}
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	if retireNow != nil {
		if err := retireJournal(retireNow.path(), nil); err != nil {
			m.logf("manager: session %s journal retire: %v", id, err)
		}
	}
	ms.s.Close()
	return nil
}

// Handoff quiesces a journaled session and returns its complete
// journal image — the byte stream a new owner feeds to AcceptHandoff.
// The sequence is the cluster rebalance protocol's source half:
//
//  1. pin the session so retention eviction cannot retire the journal
//     mid-transfer,
//  2. drain it (reject new answers, let the engine absorb any in-flight
//     completed round, stop the engine) — after this nothing appends,
//  3. fsync the journal file so even records whose sync was still
//     pending are durable, then read it whole.
//
// The session stays registered, pinned and closed until Retire removes
// it after the target acknowledges the bytes; if the transfer fails the
// journal is intact and the handoff can simply be retried (or the
// replica restarted — Recover resumes the session locally).
func (m *Manager) Handoff(ctx context.Context, id string) ([]byte, error) {
	m.mu.Lock()
	ms, ok := m.sessions[id]
	if ok && ms.journal == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotJournaled, id)
	}
	if ok {
		ms.pinned = true
	}
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	unpin := func() {
		m.mu.Lock()
		ms.pinned = false
		m.mu.Unlock()
	}
	if _, err := ms.s.Drain(ctx); err != nil {
		unpin()
		return nil, fmt.Errorf("server: handoff %s: quiesce: %w", id, err)
	}
	data, err := journal.ReadFileSynced(ms.journal.path())
	if err != nil {
		unpin()
		return nil, fmt.Errorf("server: handoff %s: %w", id, err)
	}
	m.logf("manager: session %s quiesced for handoff (%d journal bytes)", id, len(data))
	return data, nil
}

// AcceptHandoff is the rebalance protocol's target half: it lands a
// handed-off journal image durably in this manager's JournalDir
// (journal.ReplaceFile) and rebuilds the session through the regular
// recovery path, replaying the round suffix past the newest journaled
// checkpoint. Only after the rebuilt session is running — and the bytes
// would survive a crash here — does it return nil; that return is the
// ack on which the source retires its copy, so a failure anywhere
// leaves the source as the sole owner.
func (m *Manager) AcceptHandoff(id string, data []byte) error {
	if m.opts.JournalDir == "" {
		return errors.New("server: accept handoff: no JournalDir configured")
	}
	if !sessionIDPattern.MatchString(id) {
		return fmt.Errorf("server: invalid session id %q (want %s)", id, sessionIDPattern)
	}
	recs, good, err := journal.Decode(data)
	if err != nil {
		return fmt.Errorf("server: accept handoff %s: %w", id, err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("server: accept handoff %s: journal has no acknowledged records", id)
	}
	if good != int64(len(data)) {
		// A quiesced source never streams a torn tail; a short clean
		// prefix means the bytes were damaged in flight.
		return fmt.Errorf("server: accept handoff %s: journal image torn at byte %d of %d", id, good, len(data))
	}
	var created struct {
		Name string `json:"name"`
	}
	if recs[0].Type != recCreated || json.Unmarshal(recs[0].Payload, &created) != nil || created.Name != id {
		return fmt.Errorf("server: accept handoff %s: journal does not open with this session's creation record", id)
	}
	// One accept at a time: two concurrent transfers of the same ID must
	// not both pass the existence checks and then rename over each other.
	m.handoffMu.Lock()
	defer m.handoffMu.Unlock()
	if _, ok := m.Get(id); ok {
		return fmt.Errorf("%w: %q", ErrDuplicateSession, id)
	}
	if err := os.MkdirAll(m.opts.JournalDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(m.opts.JournalDir, id+".journal")
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("%w: %q (journal already on disk)", ErrDuplicateSession, id)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := journal.ReplaceFile(path, data); err != nil {
		// A landing that failed after its rename (the directory fsync) left
		// path behind; path did not exist before, so remove it — a stray
		// journal would make the source's retry fail as a duplicate and a
		// restart here resurrect a second owner.
		if rerr := retireJournal(path, nil); rerr != nil {
			m.logf("manager: accept handoff %s: discard landed journal: %v", id, rerr)
		}
		return err
	}
	recovered, err := m.recoverOne(path)
	if err != nil {
		// No ack was given, so the source still holds the authoritative
		// copy; discard the landed file rather than leaving a journal a
		// restart would resurrect into a split-brain duplicate.
		if rerr := retireJournal(path, nil); rerr != nil {
			m.logf("manager: accept handoff %s: discard failed journal: %v", id, rerr)
		}
		return fmt.Errorf("server: accept handoff %s: %w", id, err)
	}
	m.metrics.sessionsRecovered.Inc()
	m.logf("manager: session %s accepted via handoff (%d bytes)", recovered, len(data))
	return nil
}

// Retire removes a quiesced, handed-off session and deletes its local
// journal — the source's final step once AcceptHandoff acked on the new
// owner. Refuses sessions that are still running (hand off first).
func (m *Manager) Retire(id string) error {
	s, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	if !s.Status().Done {
		return fmt.Errorf("server: retire %s: session still running", id)
	}
	m.mu.Lock()
	ms, ok := m.sessions[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	m.unregisterLocked(ms)
	m.updateStateGaugesLocked()
	m.mu.Unlock()
	if ms.journal != nil {
		if err := retireJournal(ms.journal.path(), ms.journal.close); err != nil {
			return fmt.Errorf("server: retire %s: journal: %w", id, err)
		}
	}
	m.logf("manager: session %s retired (handed off)", id)
	return nil
}

// Drain gracefully shuts the manager down: no new sessions are
// admitted, queued sessions are rejected at their gate, every session
// stops accepting answers, and each engine is given until ctx to
// consume its in-flight completed round. Each session's final
// checkpoint — by construction the last one its round hook saw —
// is then written to CheckpointDir as <id>.ckpt.json by
// WriteCheckpointFile, loadable by pipeline.ReadCheckpoint for a warm
// resume. Sessions that never completed a round have no checkpoint and
// write no file. Drain is idempotent; concurrent calls drain the same snapshot.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.drainCh)
	}
	snapshot := make([]*managedSession, len(m.order))
	copy(snapshot, m.order)
	m.mu.Unlock()
	m.logf("manager: draining %d sessions", len(snapshot))

	// Stop intake everywhere first so no session keeps advancing on new
	// answers while an earlier one drains.
	for _, ms := range snapshot {
		ms.s.beginDrain()
	}
	var errs []error
	for _, ms := range snapshot {
		ck, err := ms.s.Drain(ctx)
		if err != nil {
			errs = append(errs, fmt.Errorf("drain %s: %w", ms.id, err))
		}
		if ck == nil || m.opts.CheckpointDir == "" {
			continue
		}
		path := filepath.Join(m.opts.CheckpointDir, ms.id+".ckpt.json")
		if err := WriteCheckpointFile(path, ck); err != nil {
			errs = append(errs, fmt.Errorf("checkpoint %s: %w", ms.id, err))
			continue
		}
		m.logf("manager: session %s checkpointed to %s (%.0f spent)", ms.id, path, ck.BudgetSpent)
	}
	return errors.Join(errs...)
}

// WriteCheckpointFile persists a checkpoint atomically AND durably
// through journal.ReplaceFile, the same path journal compaction takes:
// a crash shortly after Drain leaves either the previous file or the
// complete new checkpoint, never an empty or truncated one. The parent
// directory is created if missing.
func WriteCheckpointFile(path string, ck *pipeline.Checkpoint) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		return err
	}
	return journal.ReplaceFile(path, buf.Bytes())
}

// CreateSessionRequest is the POST /v1/sessions payload: a dataset (the
// hcgen JSON format) plus the job's knobs.
type CreateSessionRequest struct {
	// Name is the session's ID; optional (the manager generates s1, s2,
	// ... when empty). Must match [A-Za-z0-9._-]{1,64}.
	Name string `json:"name,omitempty"`
	// Dataset is the embedded dataset document (same schema as hcgen
	// output / dataset.Read).
	Dataset json.RawMessage `json:"dataset"`
	// Config carries the pipeline knobs.
	Config SessionConfig `json:"config"`
}

// SessionConfig is the JSON form of the pipeline configuration a
// created session runs with.
type SessionConfig struct {
	// K is the checking queries selected per round; defaults to 1.
	K int `json:"k,omitempty"`
	// Budget is the total expert-answer budget. Required, > 0.
	Budget float64 `json:"budget"`
	// BudgetWindow, when > 0, makes the session streaming: each task
	// fragment admitted through POST /tasks refills the remaining budget
	// by this much, and the engine parks awaiting admissions instead of
	// finishing when the budget runs dry (see pipeline.Config.BudgetWindow).
	BudgetWindow float64 `json:"budget_window,omitempty"`
	// Init names the belief initializer (aggregate.ByName); defaults to
	// EBCC.
	Init string `json:"init,omitempty"`
	// Seed seeds the initializer; defaults to 1.
	Seed int64 `json:"seed,omitempty"`
	// MaxRounds caps the rounds; 0 means the budget binds.
	MaxRounds int `json:"max_rounds,omitempty"`
	// RoundTimeout, a Go duration string ("30s"), closes a round with
	// the partial answers collected once the deadline passes; empty
	// waits for the full panel.
	RoundTimeout string `json:"round_timeout,omitempty"`
	// Checkpoint, when present, warm-resumes the job from a checkpoint
	// document (the GET /checkpoint body or a Drain file).
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// CostAware runs the §III-D cost-aware checking loop: each round
	// greedily buys individual (query, expert) answers by gain-per-cost
	// instead of sending every query to the full panel.
	CostAware bool `json:"cost_aware,omitempty"`
	// CostModel names how one answer is priced: "unit" (or empty) charges
	// 1 per answer; "accuracy" charges 1 + the worker's accuracy (better
	// experts cost more).
	CostModel string `json:"cost_model,omitempty"`
}

// CostModelByName resolves a SessionConfig.CostModel name to a pricing
// function for pipeline.Config.Cost; nil means unit cost (the
// pipeline's default).
func CostModelByName(name string) (func(crowd.Worker) float64, error) {
	switch name {
	case "", "unit":
		return nil, nil
	case "accuracy":
		return func(w crowd.Worker) float64 { return 1 + w.Accuracy }, nil
	default:
		return nil, fmt.Errorf("server: unknown cost model %q (want unit or accuracy)", name)
	}
}

// buildFromRequest translates the HTTP payload into the session's
// constructor arguments. CreateFromRequest and Recover share it — it is
// the reason a journaled creation record is a sufficient recovery
// recipe: everything a session runs with is derived deterministically
// from the request document.
func buildFromRequest(req CreateSessionRequest) (*dataset.Dataset, pipeline.Config, SessionOptions, error) {
	var opts SessionOptions
	fail := func(err error) (*dataset.Dataset, pipeline.Config, SessionOptions, error) {
		return nil, pipeline.Config{}, SessionOptions{}, err
	}
	if len(req.Dataset) == 0 {
		return fail(errors.New("server: create: missing dataset"))
	}
	ds, err := dataset.Read(bytes.NewReader(req.Dataset))
	if err != nil {
		return fail(fmt.Errorf("server: create: dataset: %w", err))
	}
	sc := req.Config
	if sc.Budget <= 0 {
		return fail(errors.New("server: create: config.budget must be > 0"))
	}
	if sc.K == 0 {
		sc.K = 1
	}
	if sc.K < 0 {
		return fail(errors.New("server: create: config.k must be >= 1"))
	}
	if sc.BudgetWindow < 0 {
		return fail(errors.New("server: create: config.budget_window must be >= 0"))
	}
	initName := sc.Init
	if initName == "" {
		initName = "EBCC"
	}
	seed := sc.Seed
	if seed == 0 {
		seed = 1
	}
	agg, err := aggregate.ByName(initName, seed)
	if err != nil {
		return fail(fmt.Errorf("server: create: %w", err))
	}
	couple, err := ds.EstimateCoupling()
	if err != nil {
		return fail(fmt.Errorf("server: create: %w", err))
	}
	cost, err := CostModelByName(sc.CostModel)
	if err != nil {
		return fail(fmt.Errorf("server: create: %w", err))
	}
	cfg := pipeline.Config{
		K:             sc.K,
		Budget:        sc.Budget,
		BudgetWindow:  sc.BudgetWindow,
		Init:          agg,
		PriorCoupling: couple,
		MaxRounds:     sc.MaxRounds,
		Cost:          cost,
	}
	opts.CostAware = sc.CostAware
	if sc.RoundTimeout != "" {
		d, err := time.ParseDuration(sc.RoundTimeout)
		if err != nil || d < 0 {
			return fail(fmt.Errorf("server: create: bad round_timeout %q", sc.RoundTimeout))
		}
		opts.RoundTimeout = d
	}
	if len(sc.Checkpoint) > 0 {
		ck, err := pipeline.ReadCheckpoint(bytes.NewReader(sc.Checkpoint))
		if err != nil {
			return fail(fmt.Errorf("server: create: checkpoint: %w", err))
		}
		cfg.From = ck
	}
	return ds, cfg, opts, nil
}

// CreateFromRequest builds and starts a session from the HTTP payload.
// Under a JournalDir the request document itself is journaled as the
// session's recovery recipe.
func (m *Manager) CreateFromRequest(req CreateSessionRequest) (string, *Session, error) {
	ds, cfg, opts, err := buildFromRequest(req)
	if err != nil {
		return "", nil, err
	}
	// A checkpoint from the other loop flavor is refused before anything
	// is journaled. Recovery rebuilds acknowledged sessions without this
	// check, and such a session's run ends with the same error instead.
	if err := cfg.From.CheckFlavor(opts.CostAware); err != nil {
		return "", nil, fmt.Errorf("server: create: %w", err)
	}
	opts.journalReq = &req
	return m.Create(req.Name, ds, cfg, opts)
}

// metricsSnapshot is the GET /v1/metrics document: the manager's own
// instruments plus every registered session's, folded under a leading
// "session" label (session IDs hold no comma; see sessionIDPattern).
func (m *Manager) metricsSnapshot() map[string]obsv.MetricSnapshot {
	snap := m.metrics.reg.Snapshot()
	m.mu.Lock()
	sessions := slices.Clone(m.order)
	m.mu.Unlock()
	for _, ms := range sessions {
		obsv.Fold(snap, "session", ms.id, ms.s.metrics.reg.Snapshot())
	}
	return snap
}

// Handler returns the manager's HTTP surface:
//
//	POST   /v1/sessions           create a session (CreateSessionRequest)
//	GET    /v1/sessions           list sessions (creation order)
//	GET    /v1/sessions/{id}      one session's info (state + status)
//	DELETE /v1/sessions/{id}      cancel a session's run
//	GET    /v1/metrics            the manager's metrics snapshot plus
//	                              every session's, under a "session" label
//	*      /v1/sessions/{id}/...  the session's own routes (queries,
//	                              answers, status, checkpoint, labels,
//	                              metrics — see Handler's route list)
//
// Error codes: 400 malformed payloads, 404 unknown session, 405 wrong
// method (with Allow), 409 duplicate session name, 413 oversized body,
// 503 create during drain.
func (m *Manager) Handler() http.Handler { return m.handler }

func (m *Manager) buildHandler() http.Handler {
	rt := newRouter(m.metrics.http, m.logger)
	rt.handle("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req CreateSessionRequest
		if _, ok := rt.decodeBody(w, r, maxSessionBytes, "create payload", &req); !ok {
			return
		}
		id, _, err := m.CreateFromRequest(req)
		if err != nil {
			rt.httpError(w, refusalCode(err, http.StatusBadRequest), err.Error())
			return
		}
		info, _ := m.Info(id)
		rt.writeJSON(w, http.StatusCreated, info)
	})
	rt.handle("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		rt.writeJSON(w, http.StatusOK, map[string]any{"sessions": m.List()})
	})
	rt.handle("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := m.Info(r.PathValue("id"))
		if !ok {
			rt.httpError(w, http.StatusNotFound, "unknown session "+r.PathValue("id"))
			return
		}
		rt.writeJSON(w, http.StatusOK, info)
	})
	rt.handle("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Cancel(r.PathValue("id")); err != nil {
			rt.httpError(w, http.StatusNotFound, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	rt.handle("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		rt.writeJSON(w, http.StatusOK, m.metricsSnapshot())
	})
	// The per-session proxy is not instrumented itself: the session's own
	// router counts and times each request once, under its inner route
	// (and 405s wrong methods). Only the unknown-session 404 is counted
	// here, under the proxy's route label.
	const proxyRoute = "/v1/sessions/{id}/{rest...}"
	notFound := rt.instrument(proxyRoute, func(w http.ResponseWriter, r *http.Request) {
		rt.httpError(w, http.StatusNotFound, "unknown session "+r.PathValue("id"))
	})
	rt.mux.HandleFunc(proxyRoute, func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		m.mu.Lock()
		ms, ok := m.sessions[id]
		m.mu.Unlock()
		if !ok {
			notFound(w, r)
			return
		}
		http.StripPrefix("/v1/sessions/"+id, ms.routes).ServeHTTP(w, r)
	})
	return rt.handler()
}
