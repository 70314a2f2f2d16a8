package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hcrowd/internal/dataset"
	"hcrowd/internal/journal"
	"hcrowd/internal/obsv"
	"hcrowd/internal/rngutil"
	"hcrowd/internal/server"
)

// service is the labeling service under test: a session manager behind
// a loopback HTTP server, journaling to dir.
type service struct {
	mgr *server.Manager
	srv *httptest.Server
	dir string
}

// startService starts the service for a load of the given number of
// session slots.
func startService(dir string, slots int) *service {
	m := server.NewManager(server.ManagerOptions{
		JournalDir: dir,
		// DELETE retires a finished session's journal, but only eviction
		// frees the session itself. Each slot holds at most one finished
		// session whose labels the client has not read yet, so keeping as
		// many finished sessions as there are slots never evicts an unread
		// one. Engines are not capped: hcserve's default of 4 would leave
		// most of the live sessions queued.
		Retention: slots,
	})
	return &service{mgr: m, srv: httptest.NewServer(m.Handler()), dir: dir}
}

func (s *service) close() error {
	s.srv.Close()
	return drain(s.mgr)
}

func drain(m *server.Manager) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return m.Drain(ctx)
}

// client speaks the service's HTTP API over at most two connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	return res.StatusCode, b, err
}

// sessionConfig is one (dataset, seed) pair that sessions are created
// from.
type sessionConfig struct {
	seed    int64
	req     server.CreateSessionRequest // Name is set per session
	experts []string
	// truth covers the base facts, then every fragment's, in admission
	// order: the global fact indices a streaming session assigns.
	truth  []bool
	admits [][]byte // POST /tasks bodies, one fragment each; the last is final
	// lastRound is the round after which the session should be done:
	// the reference run's last round for closed-loop sessions.
	lastRound int
	labels    []bool // closed-loop sessions: the reference run's labels
}

// answer is the experts' answer policy: the truth, with one answer in
// twenty flipped by a hash of the config, worker and fact. It depends
// on nothing else, so a session's labels do not depend on which
// connection answers first or when.
func (c *sessionConfig) answer(worker string, facts []int) []bool {
	v := make([]bool, len(facts))
	for i, f := range facts {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s/%d", c.seed, worker, f)
		v[i] = f < len(c.truth) && c.truth[f] != (h.Sum64()%20 == 0)
	}
	return v
}

func newSessionConfig(seed int64, tasks int, cfg server.SessionConfig) (*sessionConfig, *dataset.Dataset, error) {
	sc := dataset.DefaultSentiConfig()
	sc.NumTasks = tasks
	ds, err := dataset.SentiLike(rngutil.New(seed), sc)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		return nil, nil, err
	}
	ce, _ := ds.Split()
	c := &sessionConfig{
		seed:  seed,
		req:   server.CreateSessionRequest{Dataset: buf.Bytes(), Config: cfg},
		truth: append([]bool(nil), ds.Truth...),
	}
	for _, w := range ce {
		c.experts = append(c.experts, w.ID)
	}
	return c, ds, nil
}

// reference runs the config once in process, with no journal and no
// HTTP, driving Session.Queries and Session.Answer directly, and keeps
// its labels and last round.
func (c *sessionConfig) reference() error {
	m := server.NewManager(server.ManagerOptions{})
	defer drain(m)
	_, s, err := m.CreateFromRequest(c.req)
	if err != nil {
		return err
	}
	err = drive(c, func(e string) (bool, error) {
		round, facts, ok := s.Queries(e)
		if !ok {
			return s.Status().Done, nil
		}
		c.lastRound = max(c.lastRound, round)
		return false, s.Answer(round, e, c.answer(e, facts))
	})
	if err != nil {
		return err
	}
	res, err := s.Wait(context.Background())
	if err != nil {
		return err
	}
	c.labels = res.Labels
	return nil
}

// drive calls step for each expert in turn until one reports the
// session done, yielding while no round is open.
func drive(c *sessionConfig, step func(expert string) (done bool, err error)) error {
	limit := time.Now().Add(30 * time.Second)
	for time.Now().Before(limit) {
		for _, e := range c.experts {
			done, err := step(e)
			if err != nil || done {
				return err
			}
		}
		runtime.Gosched()
	}
	return fmt.Errorf("in-process session for seed %d did not finish", c.seed)
}

// serveJob is a serving workload: the service plus the session configs.
type serveJob struct {
	r      *runner
	cfgs   []*sessionConfig
	svc    *service
	stream bool
}

func setupServeAck(r *runner) (job, error) {
	j := &serveJob{r: r}
	for i := 0; i < r.sz.ackConfigs; i++ {
		seed := r.seed*1000 + int64(i)
		c, _, err := newSessionConfig(seed, r.sz.ackTasks, server.SessionConfig{K: 1, Budget: r.sz.ackBudget, Seed: seed})
		if err != nil {
			return nil, err
		}
		if err := c.reference(); err != nil {
			return nil, err
		}
		j.cfgs = append(j.cfgs, c)
	}
	return j, j.start()
}

func setupServeStream(r *runner) (job, error) {
	j := &serveJob{r: r, stream: true}
	sz := r.sz
	for i := 0; i < sz.streamConfigs; i++ {
		seed := r.seed*1000 + int64(i)
		c, ds, err := newSessionConfig(seed, sz.streamBaseTasks, server.SessionConfig{
			K: 1, Budget: sz.streamBudget, BudgetWindow: sz.streamWindow, Seed: seed, CostAware: true,
		})
		if err != nil {
			return nil, err
		}
		frng := rngutil.New(seed + 3)
		for k := 0; k < sz.streamFragments; k++ {
			fr, err := dataset.SentiFragment(frng, ds, dataset.DefaultSentiConfig(), 2)
			if err != nil {
				return nil, err
			}
			c.truth = append(c.truth, fr.Truth...)
			body, err := json.Marshal(server.AdmitTasksRequest{Fragments: []*dataset.Fragment{fr}, Final: k == sz.streamFragments-1})
			if err != nil {
				return nil, err
			}
			c.admits = append(c.admits, body)
		}
		// One answer per round: the budget and every window refill.
		c.lastRound = int(sz.streamBudget + sz.streamWindow*float64(sz.streamFragments))
		j.cfgs = append(j.cfgs, c)
	}
	return j, j.start()
}

// start checks that every config has the same two experts and starts
// the service on a fresh journal directory.
func (j *serveJob) start() error {
	for _, c := range j.cfgs {
		if !slices.Equal(c.experts, j.cfgs[0].experts) || len(c.experts) != 2 {
			return fmt.Errorf("config seed %d has experts %v, want the same two as %v", c.seed, c.experts, j.cfgs[0].experts)
		}
	}
	dir, err := os.MkdirTemp(j.r.dir, "journal-")
	if err != nil {
		return err
	}
	j.svc = startService(dir, j.sessions())
	return nil
}

func (j *serveJob) close() error { return j.svc.close() }

func (j *serveJob) sessions() int {
	if j.stream {
		return j.r.sz.streamSessions
	}
	return j.r.sz.ackSessions
}

// loadDeadline is when a serve-stream run stops answering and starts
// recovering; a serve-ack run answers until the deadline.
func (j *serveJob) loadDeadline(deadline time.Time) time.Time {
	if !j.stream {
		return deadline
	}
	return time.Now().Add(time.Duration(j.r.sz.streamLoadShare * float64(time.Until(deadline))))
}

// measure runs the load and, for serve-stream, the recoveries. The
// peak memory is taken when the load ends: a real recovery runs in a
// fresh process, not next to the live server.
func (j *serveJob) measure(ctx context.Context, deadline time.Time) (*opStats, error) {
	l := j.newLoad(nil)
	t0 := time.Now()
	l.run(j.loadDeadline(deadline))
	st := &opStats{window: time.Since(t0)}
	var err error
	if st.rssMB, err = peakRSS(); err != nil {
		return nil, err
	}
	tot := l.total()
	st.lat, st.ops = tot.ack, int(tot.answers)
	l.report(tot, st.window)
	if j.stream {
		if err := j.recoverImage(ctx, deadline, nil); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (j *serveJob) trace(ctx context.Context, tr *Tracer, deadline time.Time) error {
	l := j.newLoad(tr)
	m0 := mallocs()
	t0 := time.Now()
	l.run(j.loadDeadline(deadline))
	window := time.Since(t0)
	allocs := mallocs() - m0
	l.scrapeLive()
	tot := l.total()
	l.report(tot, window)
	if err := l.putLayers(tot, window); err != nil {
		return err
	}
	j.r.put("process.allocs_per_op", float64(allocs)/float64(tot.answers))
	if j.stream {
		return j.recoverImage(ctx, deadline, tr)
	}
	return nil
}

// load is the closed-loop client: two connections cycling over the live
// sessions, each request sent when the previous one returned, nothing
// sleeping. In serve-ack each connection is one expert and answers
// every session, so both panelists answer each round at about the same
// time. In serve-stream a round asks one expert, so each connection
// owns half the sessions and answers as whichever expert is asked.
type load struct {
	j       *serveJob
	c       *client
	slots   []*slot
	nonce   string
	created atomic.Int64
	stats   [2]connStats

	// Traced runs alternate untraced and traced phases of phase each,
	// starting untraced, and record spans in traced phases only. They
	// scrape every session's metrics as it finishes and, once the load
	// stops, every live one's.
	tr     *Tracer
	origin time.Time
	phase  time.Duration
	mu     sync.Mutex
	layers serveLayers //hclint:guardedby mu
}

// slot holds one live session. Its owner connection creates, admits
// into, finishes and replaces it.
type slot struct {
	owner      int
	mu         sync.Mutex
	id         string
	cfg        *sessionConfig
	maxRound   int       // highest round answered
	progressAt time.Time // when maxRound last grew
	checkedAt  time.Time // last status request
	admitted   int       // fragments posted
	asked      int       // index of the expert the last answered round asked
	ackTime    time.Duration
	acks       int
}

// connStats is one connection's view of the run.
type connStats struct {
	ack, poll, create, admit Latency
	// ackTraced and ackUntraced split ack by phase in traced runs.
	ackTraced, ackUntraced Latency
	answers, useful, empty int64
	stale, gone            int64
	attempted, failed      int64
	inRequests             time.Duration // traced phases: time inside request spans
	errors                 []string
}

func (s *connStats) fail(format string, args ...any) {
	s.failed++
	if len(s.errors) < 5 {
		s.errors = append(s.errors, fmt.Sprintf(format, args...))
	}
}

func (s *connStats) merge(o *connStats) {
	for _, p := range []struct{ a, b *Latency }{
		{&s.ack, &o.ack}, {&s.poll, &o.poll}, {&s.create, &o.create}, {&s.admit, &o.admit},
		{&s.ackTraced, &o.ackTraced}, {&s.ackUntraced, &o.ackUntraced},
	} {
		p.a.Merge(p.b)
	}
	s.answers += o.answers
	s.useful += o.useful
	s.empty += o.empty
	s.stale += o.stale
	s.gone += o.gone
	s.attempted += o.attempted
	s.failed += o.failed
	s.inRequests += o.inRequests
	s.errors = append(s.errors, o.errors...)
}

func (j *serveJob) newLoad(tr *Tracer) *load {
	l := &load{
		j:     j,
		c:     newClient(j.svc.srv.URL),
		nonce: strconv.FormatInt(time.Now().UnixNano(), 36),
		tr:    tr,
		phase: j.r.seconds / 10,
	}
	for i := 0; i < j.sessions(); i++ {
		l.slots = append(l.slots, &slot{owner: i % 2})
	}
	return l
}

// run drives both connections until the deadline and waits for them.
func (l *load) run(deadline time.Time) {
	l.origin = time.Now()
	var wg sync.WaitGroup
	for g := range l.stats {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l.conn(g, deadline, &l.stats[g])
		}(g)
	}
	wg.Wait()
	l.c.hc.CloseIdleConnections()
}

func (l *load) tracedNow() bool {
	return l.tr != nil && int(time.Since(l.origin)/l.phase)%2 == 1
}

// tracedTime is how much of the load's first d fell in traced phases.
func (l *load) tracedTime(d time.Duration) time.Duration {
	pairs := d / (2 * l.phase)
	rest := d - pairs*2*l.phase
	return pairs*l.phase + min(max(rest-l.phase, 0), l.phase)
}

func (l *load) conn(g int, deadline time.Time, st *connStats) {
	for {
		for _, sl := range l.slots {
			if !time.Now().Before(deadline) {
				return
			}
			switch {
			case !l.j.stream:
				if sl.owner == g {
					l.maintain(sl, st)
				}
				l.answer(sl, g, st)
			case sl.owner == g:
				l.maintain(sl, st)
				// Ask first for the expert the previous round asked.
				sl.mu.Lock()
				first := sl.asked
				sl.mu.Unlock()
				if !l.answer(sl, first, st) {
					l.answer(sl, 1-first, st)
				}
			}
		}
	}
}

// request sends one request, counts it, and records a span around it
// in traced phases. Besides 2xx, only the codes in benign succeed.
func (l *load) request(st *connStats, span, id, method, path string, body []byte, benign ...int) (code int, resp []byte, took time.Duration, ok bool) {
	var sp int
	traced := l.tracedNow()
	if traced {
		sp = l.tr.Begin(id, 0, span)
	}
	t := time.Now()
	code, resp, err := l.c.do(method, path, body)
	took = time.Since(t)
	if traced {
		st.inRequests += l.tr.End(sp)
	}
	st.attempted++
	switch {
	case err != nil:
		st.fail("%s %s: %v", method, path, err)
		return code, nil, took, false
	case code/100 != 2 && !slices.Contains(benign, code):
		st.fail("%s %s: %d %s", method, path, code, bytes.TrimSpace(resp))
		return code, resp, took, false
	}
	return code, resp, took, true
}

// answer polls the slot's session for the e-th expert and answers the
// open round if there is one. It reports whether the poll found a round.
func (l *load) answer(sl *slot, e int, st *connStats) bool {
	sl.mu.Lock()
	id, cfg := sl.id, sl.cfg
	sl.mu.Unlock()
	if id == "" {
		return false
	}
	expert := cfg.experts[e]
	code, body, took, ok := l.request(st, "http.poll", id, "GET", "/v1/sessions/"+id+"/queries?worker="+expert, nil)
	if !ok {
		st.poll.Fail()
		return false
	}
	st.poll.Add(took.Seconds())
	if code == http.StatusNoContent {
		st.empty++
		return false
	}
	var q server.Query
	if err := json.Unmarshal(body, &q); err != nil {
		st.fail("queries %s: %v", id, err)
		return false
	}
	st.useful++
	ans, err := json.Marshal(map[string]any{"round": q.Round, "worker": expert, "values": cfg.answer(expert, q.Facts)})
	if err != nil {
		st.fail("answer %s: %v", id, err)
		return true
	}
	traced := l.tracedNow()
	code, _, took, ok = l.request(st, "http.answer", id, "POST", "/v1/sessions/"+id+"/answers", ans, http.StatusConflict, http.StatusGone)
	switch {
	case !ok:
		st.ack.Fail()
	case code == http.StatusConflict:
		st.stale++
	case code == http.StatusGone:
		st.gone++
	default:
		st.answers++
		st.ack.Add(took.Seconds())
		if traced {
			st.ackTraced.Add(took.Seconds())
		} else {
			st.ackUntraced.Add(took.Seconds())
		}
		sl.mu.Lock()
		if sl.id == id {
			if q.Round > sl.maxRound {
				sl.maxRound, sl.progressAt = q.Round, time.Now()
			}
			sl.asked = e
			sl.ackTime += took
			sl.acks++
		}
		sl.mu.Unlock()
	}
	return true
}

// maintain is the owner's turn on a slot: create its session, admit the
// next fragment when it is due, and finish and replace the session once
// its status says it is done.
func (l *load) maintain(sl *slot, st *connStats) {
	sl.mu.Lock()
	id, cfg, maxRound, admitted := sl.id, sl.cfg, sl.maxRound, sl.admitted
	sinceProgress, sinceCheck := time.Since(sl.progressAt), time.Since(sl.checkedAt)
	sl.mu.Unlock()
	if id == "" {
		l.create(sl, st)
		return
	}
	if admitted < len(cfg.admits) && maxRound >= l.j.r.sz.streamAdmitEvery*(admitted+1) {
		l.admit(sl, st)
		return
	}
	due := maxRound >= cfg.lastRound && sinceCheck > time.Millisecond
	stalled := sinceProgress > 200*time.Millisecond && sinceCheck > 50*time.Millisecond
	if !due && !stalled {
		return
	}
	sl.mu.Lock()
	sl.checkedAt = time.Now()
	sl.mu.Unlock()
	_, body, _, ok := l.request(st, "http.status", id, "GET", "/v1/sessions/"+id+"/status", nil)
	if !ok {
		return
	}
	var s server.Status
	if err := json.Unmarshal(body, &s); err != nil {
		st.fail("status %s: %v", id, err)
		return
	}
	switch {
	case s.Done:
		l.finish(sl, s, st)
		l.create(sl, st)
	case s.OpenRound == 0 && admitted < len(cfg.admits):
		// Parked: the budget ran dry before the next admission was due.
		l.admit(sl, st)
	case sinceProgress > 20*time.Second:
		st.fail("session %s made no progress for %v (status %+v)", id, sinceProgress.Round(time.Second), s)
		l.create(sl, st)
	}
}

func (l *load) create(sl *slot, st *connStats) {
	n := l.created.Add(1)
	cfg := l.j.cfgs[int(n-1)%len(l.j.cfgs)]
	prefix := "ack"
	if l.j.stream {
		prefix = "stream"
	}
	req := cfg.req
	req.Name = fmt.Sprintf("%s-%s-%d", prefix, l.nonce, n)
	body, err := json.Marshal(req)
	if err != nil {
		st.fail("create: %v", err)
		return
	}
	_, _, took, ok := l.request(st, "http.create", req.Name, "POST", "/v1/sessions", body)
	if !ok {
		st.create.Fail()
		return
	}
	st.create.Add(took.Seconds())
	now := time.Now()
	sl.mu.Lock()
	sl.id, sl.cfg, sl.progressAt = req.Name, cfg, now
	sl.maxRound, sl.admitted, sl.ackTime, sl.acks = 0, 0, 0, 0
	sl.mu.Unlock()
}

func (l *load) admit(sl *slot, st *connStats) {
	sl.mu.Lock()
	id, body := sl.id, sl.cfg.admits[sl.admitted]
	sl.mu.Unlock()
	_, _, took, ok := l.request(st, "http.admit", id, "POST", "/v1/sessions/"+id+"/tasks", body)
	if !ok {
		st.admit.Fail()
		return
	}
	st.admit.Add(took.Seconds())
	sl.mu.Lock()
	sl.admitted++
	sl.mu.Unlock()
}

// finish checks a done session's labels, scrapes its metrics in traced
// runs, and deletes it, which also retires its journal.
func (l *load) finish(sl *slot, s server.Status, st *connStats) {
	sl.mu.Lock()
	id, cfg, ackTime, acks, admitted := sl.id, sl.cfg, sl.ackTime, sl.acks, sl.admitted
	sl.mu.Unlock()
	base := "/v1/sessions/" + id
	if s.Error != "" {
		st.fail("session %s failed: %s", id, s.Error)
	}
	if _, body, _, ok := l.request(st, "http.labels", id, "GET", base+"/labels", nil); ok {
		var out struct {
			Labels []bool `json:"labels"`
		}
		switch err := json.Unmarshal(body, &out); {
		case err != nil:
			st.fail("labels %s: %v", id, err)
		case cfg.labels != nil && !slices.Equal(out.Labels, cfg.labels):
			st.fail("session %s: labels differ from the in-process reference for seed %d", id, cfg.seed)
		case cfg.labels == nil && len(out.Labels) != len(cfg.truth):
			st.fail("session %s: %d labels for %d facts after %d of %d admissions", id, len(out.Labels), len(cfg.truth), admitted, len(cfg.admits))
		}
	}
	if l.tr != nil {
		l.scrape(st, id, ackTime, acks)
	}
	l.request(st, "http.delete", id, "DELETE", base, nil)
}

// serveLayers sums the server's own counters over the sessions scraped.
type serveLayers struct {
	sessions                                  int
	syncs, bytes, compactions, accepted       float64
	rounds, evals, rescans, reused, fileBytes float64
	ackTime                                   time.Duration // client ack round trips of those sessions
	acks                                      int
	sync, answerHandler, admitHandler         hist
}

// hist merges histogram snapshots that share one bucket layout.
type hist struct {
	count   int64
	sum     float64
	buckets []obsv.Bucket
}

func (h *hist) add(s *obsv.HistogramSnapshot) {
	if s == nil {
		return
	}
	if h.buckets == nil {
		h.buckets = make([]obsv.Bucket, len(s.Buckets))
		for i, b := range s.Buckets {
			h.buckets[i].Le = b.Le
		}
	}
	h.count += s.Count
	h.sum += s.Sum
	for i := range h.buckets {
		if i < len(s.Buckets) {
			h.buckets[i].Count += s.Buckets[i].Count
		}
	}
}

func (h *hist) mean() float64 { return h.sum / float64(h.count) }

// quantile is the upper bound of the bucket holding the q-th quantile,
// in seconds; +Inf past the last bucket, NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	for _, b := range h.buckets {
		if b.Count >= rank {
			return b.Le
		}
	}
	return math.Inf(1)
}

func (l *load) scrape(st *connStats, id string, ackTime time.Duration, acks int) {
	_, body, _, ok := l.request(st, "http.metrics", id, "GET", "/v1/sessions/"+id+"/metrics", nil)
	if !ok {
		return
	}
	var snap map[string]obsv.MetricSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		st.fail("metrics %s: %v", id, err)
		return
	}
	value := func(name string) float64 {
		if v := snap[name].Value; v != nil {
			return *v
		}
		return 0
	}
	route := func(name, r string) *obsv.HistogramSnapshot {
		if h, ok := snap[name].Histograms[r]; ok {
			return &h
		}
		return nil
	}
	var size float64
	if fi, err := os.Stat(filepath.Join(l.j.svc.dir, id+".journal")); err == nil {
		size = float64(fi.Size())
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ly := &l.layers
	ly.sessions++
	ly.syncs += value("journal_syncs_total")
	ly.bytes += value("journal_bytes_total")
	ly.compactions += value("journal_compactions_total")
	ly.accepted += value("session_answers_accepted_total")
	ly.rounds += value("pipeline_rounds_total")
	ly.evals += value("selector_evals_total")
	ly.rescans += value("selector_rescans_total")
	ly.reused += value("selector_reused_total")
	ly.fileBytes += size
	ly.ackTime += ackTime
	ly.acks += acks
	ly.sync.add(snap["journal_sync_seconds"].Histogram)
	ly.answerHandler.add(route("http_request_seconds", "POST /answers"))
	ly.admitHandler.add(route("http_request_seconds", "POST /tasks"))
}

// scrapeLive scrapes every live session once the load has stopped.
func (l *load) scrapeLive() {
	for _, sl := range l.slots {
		sl.mu.Lock()
		id, ackTime, acks := sl.id, sl.ackTime, sl.acks
		sl.mu.Unlock()
		if id != "" {
			l.scrape(&l.stats[0], id, ackTime, acks)
		}
	}
}

// total merges both connections' stats.
func (l *load) total() *connStats {
	var t connStats
	for i := range l.stats {
		t.merge(&l.stats[i])
	}
	return &t
}

// report prints the client-side catalogue and fails the run on any
// failed request or label mismatch.
func (l *load) report(t *connStats, window time.Duration) {
	r := l.j.r
	r.requests(t.attempted, t.failed)
	for _, e := range t.errors {
		r.check(false, "%s", e)
	}
	r.printf("answers_per_s %.5g (%d answers in %.3f s, %d sessions created)", float64(t.answers)/window.Seconds(), t.answers, window.Seconds(), l.created.Load())
	r.printf("ack (POST /answers) %s", t.ack.Summary())
	r.printf("poll (GET /queries) %s", t.poll.Summary())
	r.printf("create (POST /v1/sessions) %s", t.create.Summary())
	if l.j.stream {
		r.printf("admit (POST /tasks) %s", t.admit.Summary())
	}
	r.printf("error_rate %.4g (%d of %d requests); benign: %d stale 409, %d gone 410; %d of %d polls found a round",
		float64(t.failed)/float64(t.attempted), t.failed, t.attempted, t.stale, t.gone, t.useful, t.useful+t.empty)
}

// tail is l's highest percentile with enough samples beyond it, in
// milliseconds, or its median when there are too few for a tail.
func tail(l *Latency) float64 {
	p, ok := Tail(l.Attempts())
	if !ok {
		p = 50
	}
	return l.Percentile(p) * 1e3
}

// putLayers reports the traced run's path metrics from the connections'
// counts and the scraped server counters.
func (l *load) putLayers(t *connStats, window time.Duration) error {
	r := l.j.r
	l.mu.Lock()
	ly := l.layers
	l.mu.Unlock()
	_, body, err := l.c.do("GET", "/v1/metrics", nil)
	if err != nil {
		return err
	}
	var msnap map[string]obsv.MetricSnapshot
	if err := json.Unmarshal(body, &msnap); err != nil {
		return fmt.Errorf("manager metrics: %w", err)
	}
	var create hist
	if h, ok := msnap["manager_http_request_seconds"].Histograms["POST /v1/sessions"]; ok {
		create.add(&h)
	}
	flavour := "uniform"
	if l.j.stream {
		flavour = "costaware"
		r.put("client.admit_tail_ms", tail(&t.admit))
		r.put("server.admit_handler.p90_ms", ly.admitHandler.quantile(0.9)*1e3)
	}
	r.put("client.ack_tail_ms", tail(&t.ack))
	r.put("client.poll_p50_ms", t.poll.Percentile(50)*1e3)
	r.put("client.poll_tail_ms", tail(&t.poll))
	r.put("client.create_tail_ms", tail(&t.create))
	// The server's histograms start at 0.5 ms, so their means say more
	// than their bucket bounds about sub-millisecond work.
	r.put("journal.sync.mean_ms", ly.sync.mean()*1e3)
	r.put("journal.sync.p99_ms", ly.sync.quantile(0.99)*1e3)
	r.put("journal.syncs_per_answer", ly.syncs/ly.accepted)
	r.put("journal.bytes_per_answer", ly.bytes/ly.accepted)
	r.put("journal.write_amplification", ly.bytes/ly.fileBytes)
	r.put("journal.compactions_per_session", ly.compactions/float64(ly.sessions))
	r.put("server.answer_handler.mean_ms", ly.answerHandler.mean()*1e3)
	r.put("server.answer_handler.p99_ms", ly.answerHandler.quantile(0.99)*1e3)
	r.put("server.http_overhead.mean_ms", (ly.ackTime.Seconds()/float64(ly.acks)-ly.answerHandler.mean())*1e3)
	r.put("server.create_handler.p90_ms", create.quantile(0.9)*1e3)
	r.put("taskselect."+flavour+".evals_per_round", ly.evals/ly.rounds)
	r.put("taskselect."+flavour+".cache_hit_ratio", ly.reused/(ly.reused+ly.rescans))
	r.put("pipeline.rounds_per_s", ly.rounds/ly.accepted*float64(t.answers)/window.Seconds())
	r.put("server.poll_useful_ratio", float64(t.useful)/float64(t.useful+t.empty))
	posts := float64(t.ack.Attempts()) + float64(t.stale+t.gone)
	r.put("server.stale_409_ratio", float64(t.stale)/posts)
	r.put("server.gone_410_ratio", float64(t.gone)/posts)
	r.put("bench.trace_overhead_pct", 100*(t.ackTraced.Percentile(50)/t.ackUntraced.Percentile(50)-1))
	// The share of the two connections' traced time spent inside
	// requests; the rest is the client's own work between them.
	r.put("bench.span_coverage_pct", pct(t.inRequests, 2*l.tracedTime(window)))
	r.printf("scraped %d sessions (finished ones and, at the end, live ones)", ly.sessions)
	r.printf("journal.sync mean %.4g ms, p99 <= %.4g ms (n=%d)", ly.sync.mean()*1e3, ly.sync.quantile(0.99)*1e3, ly.sync.count)
	r.printf("server.answer_handler mean %.4g ms, p99 <= %.4g ms (n=%d)", ly.answerHandler.mean()*1e3, ly.answerHandler.quantile(0.99)*1e3, ly.answerHandler.count)
	r.printf("server.create_handler mean %.4g ms, p90 <= %.4g ms (n=%d)", create.mean()*1e3, create.quantile(0.9)*1e3, create.count)
	r.printf("ack p50 %.4g ms in traced phases, %.4g ms in untraced phases", t.ackTraced.Percentile(50)*1e3, t.ackUntraced.Percentile(50)*1e3)
	return nil
}

// recoverImage lets the stopped load settle, copies the journal
// directory as a crash image, and recovers it into fresh managers
// until the deadline (at least once, at most streamRecoveries times).
// Every recovered session must come back with the live session's open
// round, open facts, and admitted and pending fragments.
func (j *serveJob) recoverImage(ctx context.Context, deadline time.Time, tr *Tracer) error {
	r := j.r
	live, err := j.settle(ctx)
	if err != nil {
		return err
	}
	image := make(map[string][]byte)
	var imageBytes int64
	var records int
	var decode time.Duration
	for id := range live {
		data, err := os.ReadFile(filepath.Join(j.svc.dir, id+".journal"))
		if err != nil {
			return err
		}
		image[id] = data
		imageBytes += int64(len(data))
		t := time.Now()
		recs, good, err := journal.Decode(data)
		decode += time.Since(t)
		if err != nil {
			return fmt.Errorf("decode %s: %w", id, err)
		}
		r.check(good == int64(len(data)), "journal %s: clean prefix %d of %d bytes", id, good, len(data))
		records += len(recs)
	}
	var took, calls []float64
	for k := 0; k < r.sz.streamRecoveries && (k == 0 || time.Now().Before(deadline)); k++ {
		d, call, err := j.recoverOnce(ctx, k, image, live, tr)
		if err != nil {
			return err
		}
		took, calls = append(took, d.Seconds()), append(calls, call.Seconds())
	}
	mb := float64(imageBytes) / (1 << 20)
	r.printf("crash image: %d journals, %.3g MB, %d records, decoded in %.4g ms", len(image), mb, records, ms(decode))
	r.printf("recover_s median %.4g s, server.recover_call.s median %.4g s (n=%d)", Median(took), Median(calls), len(took))
	if tr != nil {
		r.put("journal.decode.ms", ms(decode))
		r.put("journal.image_records", float64(records))
		r.put("journal.image_mb", mb)
		r.put("server.recover_s", Median(took))
		r.put("server.recover_call.s", Median(calls))
	}
	return nil
}

// settle waits until every journaled live session's status stops
// changing and returns the statuses by session ID.
func (j *serveJob) settle(ctx context.Context) (map[string]server.Status, error) {
	entries, err := os.ReadDir(j.svc.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".journal"); ok {
			ids = append(ids, id)
		}
	}
	var prev map[string]server.Status
	for tries := 0; tries < 500; tries++ {
		cur := make(map[string]server.Status)
		for _, id := range ids {
			if s, ok := j.svc.mgr.Get(id); ok {
				cur[id] = s.Status()
			}
		}
		if prev != nil && sameStatuses(prev, cur) {
			return cur, nil
		}
		prev = cur
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return nil, errors.New("live sessions did not settle after the load stopped")
}

// recoverOnce writes the image to a fresh directory, recovers it, and
// waits until every session serves its open round again. It returns the
// time from NewManager to that point and the time of Recover alone.
func (j *serveJob) recoverOnce(ctx context.Context, k int, image map[string][]byte, live map[string]server.Status, tr *Tracer) (took, call time.Duration, err error) {
	dir := filepath.Join(j.r.dir, fmt.Sprintf("recover-%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	for id, data := range image {
		if err := os.WriteFile(filepath.Join(dir, id+".journal"), data, 0o644); err != nil {
			return 0, 0, err
		}
	}
	trace := fmt.Sprintf("recover-%d", k)
	var root, span int
	if tr != nil {
		root = tr.Begin(trace, 0, "server.recover")
	}
	t0 := time.Now()
	m := server.NewManager(server.ManagerOptions{JournalDir: dir})
	defer drain(m)
	if tr != nil {
		span = tr.Begin(trace, root, "server.recover_call")
	}
	t1 := time.Now()
	ids, err := m.Recover()
	call = time.Since(t1)
	if tr != nil {
		tr.End(span)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("recover: %w", err)
	}
	slices.Sort(ids)
	want := make([]string, 0, len(live))
	for id := range live {
		want = append(want, id)
	}
	slices.Sort(want)
	j.r.check(slices.Equal(ids, want), "recovery %d: recovered %d sessions, image holds %d", k, len(ids), len(want))
	limit := time.Now().Add(30 * time.Second)
	for _, id := range want {
		s, ok := m.Get(id)
		if !ok {
			continue
		}
		for !sameStatus(s.Status(), live[id]) {
			if time.Now().After(limit) {
				j.r.check(false, "recovery %d: session %s status %+v, live %+v", k, id, s.Status(), live[id])
				break
			}
			if err := ctx.Err(); err != nil {
				return 0, 0, err
			}
			runtime.Gosched()
		}
	}
	took = time.Since(t0)
	if tr != nil {
		tr.End(root)
	}
	return took, call, nil
}

// sameStatus compares what a recovered session must restore.
func sameStatus(a, b server.Status) bool {
	return a.Done == b.Done && a.OpenRound == b.OpenRound && slices.Equal(a.OpenFacts, b.OpenFacts) &&
		a.AdmittedFragments == b.AdmittedFragments && a.PendingFragments == b.PendingFragments
}

func sameStatuses(a, b map[string]server.Status) bool {
	if len(a) != len(b) {
		return false
	}
	for id, s := range a {
		if t, ok := b[id]; !ok || !sameStatus(s, t) {
			return false
		}
	}
	return true
}
