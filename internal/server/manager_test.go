package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/dataset"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
)

// sizedDataset builds a SentiLike dataset with the given task count and
// generator seed, so concurrent-session tests can give every session
// distinct work.
func sizedDataset(t *testing.T, tasks int, seed int64) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultSentiConfig()
	cfg.NumTasks = tasks
	ds, err := dataset.SentiLike(rngutil.New(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// flipAnswers is the deterministic imperfect-expert policy shared by the
// concurrent HTTP clients and the sequential reference run: each value
// is the truth XORed with a flip that depends only on (fact index,
// worker ID) — never on arrival order or scheduling — so any two runs
// that consume the same rounds see the same families.
func flipAnswers(ds *dataset.Dataset, worker string, facts []int) []bool {
	h := 0
	for _, c := range []byte(worker) {
		h += int(c)
	}
	values := make([]bool, len(facts))
	for i, f := range facts {
		v := ds.Truth[f]
		if (f*131+h*17)%7 == 0 {
			v = !v
		}
		values[i] = v
	}
	return values
}

// driveFlip answers every round in-process with flipAnswers until the
// session finishes; the sequential reference for the concurrent runs.
func driveFlip(s *Session, ds *dataset.Dataset) error {
	deadline := time.After(20 * time.Second)
	for {
		select {
		case <-s.finished:
			return nil
		case <-deadline:
			return fmt.Errorf("session did not finish")
		default:
		}
		progressed := false
		for _, id := range s.Experts() {
			round, facts, ok := s.Queries(id)
			if !ok {
				continue
			}
			if err := s.Answer(round, id, flipAnswers(ds, id, facts)); err != nil {
				return err
			}
			progressed = true
		}
		if !progressed {
			time.Sleep(time.Millisecond)
		}
	}
}

// sessionSpec is one concurrent session's recipe.
type sessionSpec struct {
	name     string
	tasks    int
	dsSeed   int64
	aggSeed  int64
	budget   float64
	k        int
	refDS    *dataset.Dataset
	expected []bool
}

// TestManagerMultiSessionDeterministicGivenSeed is the acceptance check
// for the multi-session service: N sessions created over the /v1 API
// and answered by concurrent per-expert clients must produce labels
// byte-identical to the same-seed single-session runs. It runs under
// -race in CI (make race) and in the -count=2 determinism suite.
func TestManagerMultiSessionDeterministicGivenSeed(t *testing.T) {
	specs := []*sessionSpec{
		{name: "alpha", tasks: 6, dsSeed: 31, aggSeed: 1, budget: 12, k: 1},
		{name: "beta", tasks: 8, dsSeed: 32, aggSeed: 2, budget: 16, k: 2},
		{name: "gamma", tasks: 10, dsSeed: 33, aggSeed: 3, budget: 12, k: 1},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Reference: plain single sessions, driven sequentially.
	for _, sp := range specs {
		sp.refDS = sizedDataset(t, sp.tasks, sp.dsSeed)
		agg, err := aggregate.ByName("EBCC", sp.aggSeed)
		if err != nil {
			t.Fatal(err)
		}
		couple, err := sp.refDS.EstimateCoupling()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewSession(ctx, sp.refDS, pipeline.Config{
			K: sp.k, Budget: sp.budget, Init: agg, PriorCoupling: couple,
		}, SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := driveFlip(ref, sp.refDS); err != nil {
			t.Fatalf("reference %s: %v", sp.name, err)
		}
		res, err := ref.Wait(ctx)
		if err != nil {
			t.Fatalf("reference %s: %v", sp.name, err)
		}
		sp.expected = res.Labels
		ref.Close()
	}

	// Concurrent: the same jobs through the manager's HTTP surface, every
	// (session, expert) pair answering from its own goroutine.
	m := NewManager(ManagerOptions{MaxRunning: len(specs)})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	mc := NewManagerClient(srv.URL)

	for _, sp := range specs {
		var dsBuf bytes.Buffer
		if err := sp.refDS.Write(&dsBuf); err != nil {
			t.Fatal(err)
		}
		info, err := mc.Create(ctx, CreateSessionRequest{
			Name:    sp.name,
			Dataset: dsBuf.Bytes(),
			Config:  SessionConfig{K: sp.k, Budget: sp.budget, Seed: sp.aggSeed},
		})
		if err != nil {
			t.Fatalf("create %s: %v", sp.name, err)
		}
		if info.ID != sp.name || info.Status.Done {
			t.Fatalf("create %s: info %+v", sp.name, info)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for _, sp := range specs {
		sp := sp
		sc := mc.Session(sp.name)
		experts, err := sc.Experts(ctx)
		if err != nil {
			t.Fatalf("experts %s: %v", sp.name, err)
		}
		for _, id := range experts {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				err := sc.AnswerLoop(ctx, id, func(facts []int) []bool {
					return flipAnswers(sp.refDS, id, facts)
				}, time.Millisecond)
				if err != nil {
					errCh <- fmt.Errorf("%s/%s: %w", sp.name, id, err)
				}
			}(id)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	for _, sp := range specs {
		got, err := mc.Session(sp.name).Labels(ctx)
		if err != nil {
			t.Fatalf("labels %s: %v", sp.name, err)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(sp.expected)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: concurrent labels diverge from single-session reference\n got %s\nwant %s",
				sp.name, gotJSON, wantJSON)
		}
		info, err := mc.Info(ctx, sp.name)
		if err != nil || info.State != StateDone {
			t.Errorf("%s: info = %+v, %v; want done", sp.name, info, err)
		}
	}
}

// TestManagerDrainCheckpointDeterministicGivenSeed pins the graceful
// drain contract: after a few completed rounds, Drain must (a) reject
// further answers with 503, (b) persist one checkpoint per session to
// the checkpoint directory, and (c) make the persisted file
// byte-identical to the last round-hook emission — so Ctrl-C never
// loses progress past the last completed round.
func TestManagerDrainCheckpointDeterministicGivenSeed(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := t.TempDir()
	m := NewManager(ManagerOptions{CheckpointDir: dir})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	ds := sizedDataset(t, 8, 41)
	var mu sync.Mutex
	var lastEmitted *pipeline.Checkpoint
	var rounds atomic.Int64
	cfg := pipeline.Config{
		K: 1, Budget: 200, // far beyond what the test answers: the drain, not the budget, ends the run
		Journal: func(_ int, ck *pipeline.Checkpoint) error {
			mu.Lock()
			lastEmitted = ck
			mu.Unlock()
			rounds.Add(1)
			return nil
		},
	}
	id, s, err := m.Create("drainee", ds, cfg, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}

	loopCtx, stopLoops := context.WithCancel(ctx)
	defer stopLoops()
	var wg sync.WaitGroup
	sc := NewManagerClient(srv.URL).Session(id)
	for _, w := range s.Experts() {
		wg.Add(1)
		go func(w string) {
			defer wg.Done()
			// Errors are expected once the drain closes the session early.
			_ = sc.AnswerLoop(loopCtx, w, func(facts []int) []bool {
				return flipAnswers(ds, w, facts)
			}, time.Millisecond)
		}(w)
	}
	for rounds.Load() < 3 {
		select {
		case <-ctx.Done():
			t.Fatal("sessions never completed 3 rounds")
		case <-time.After(time.Millisecond):
		}
	}

	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	stopLoops()
	wg.Wait()

	// (a) the drained manager admits nothing new...
	if _, _, err := m.Create("late", ds, cfg, SessionOptions{}); !errors.Is(err, ErrManagerDraining) {
		t.Errorf("create after drain: %v, want ErrManagerDraining", err)
	}
	// ...and the drained session rejects answers at the HTTP layer (410:
	// the drain already closed it; the transient mid-drain code is 503 —
	// both benign to AnswerLoop).
	resp, err := http.Post(srv.URL+"/v1/sessions/"+id+"/answers", "application/json",
		bytes.NewReader([]byte(`{"round":1,"worker":"x","values":[true]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("post-drain answer status = %d, want 410", resp.StatusCode)
	}

	// (b) the final checkpoint file exists and loads.
	path := filepath.Join(dir, id+".ckpt.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("drain wrote no checkpoint: %v", err)
	}
	ck, err := pipeline.ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("drained checkpoint does not load: %v", err)
	}
	if ck.BudgetSpent <= 0 {
		t.Errorf("drained checkpoint spent = %v, want > 0", ck.BudgetSpent)
	}

	// (c) the file is byte-identical to the last round-hook emission.
	mu.Lock()
	last := lastEmitted
	mu.Unlock()
	if last == nil {
		t.Fatal("no checkpoint emission captured")
	}
	var want bytes.Buffer
	if err := last.Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Errorf("drained file differs from last round-hook emission (%d vs %d bytes)",
			len(raw), want.Len())
	}

	// The checkpoint warm-resumes into a fresh session.
	resumed, err := NewSession(ctx, ds, pipeline.Config{K: 1, Budget: ck.BudgetSpent + 8, From: ck}, SessionOptions{})
	if err != nil {
		t.Fatalf("resume from drained checkpoint: %v", err)
	}
	if err := driveFlip(resumed, ds); err != nil {
		t.Fatalf("resumed session: %v", err)
	}
	if _, err := resumed.Wait(ctx); err != nil {
		t.Fatalf("resumed session: %v", err)
	}
	resumed.Close()
}

// TestManagerSemaphoreBoundsRunning checks the concurrency gate: with
// MaxRunning=1 the second session stays queued — publishing no rounds —
// until the first finishes, then runs to completion.
func TestManagerSemaphoreBoundsRunning(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m := NewManager(ManagerOptions{MaxRunning: 1})

	dsA := sizedDataset(t, 6, 51)
	dsB := sizedDataset(t, 6, 52)
	_, sa, err := m.Create("first", dsA, pipeline.Config{K: 1, Budget: 8}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the first session holds the only slot (it published a
	// round) BEFORE creating the second — the gates run in goroutines, so
	// two queued sessions race for the slot in arbitrary order.
	for {
		if _, _, ok := sa.Queries(sa.Experts()[0]); ok {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("first session never published")
		case <-time.After(time.Millisecond):
		}
	}
	_, sb, err := m.Create("second", dsB, pipeline.Config{K: 1, Budget: 8}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The second must sit queued with nothing to answer.
	if info, _ := m.Info("second"); info.State != StateQueued {
		t.Fatalf("second state = %q, want queued", info.State)
	}
	if _, _, ok := sb.Queries(sb.Experts()[0]); ok {
		t.Fatal("queued session published a round")
	}

	if err := answerAll(sa, dsA); err != nil {
		t.Fatal(err)
	}
	if err := answerAll(sb, dsB); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"first", "second"} {
		if info, _ := m.Info(id); info.State != StateDone {
			t.Errorf("%s state = %q, want done", id, info.State)
		}
	}
}

// TestManagerRetentionEviction checks finished-session eviction: beyond
// the retention cap the oldest-finished sessions disappear from the
// registry and their per-session metric labels are removed.
func TestManagerRetentionEviction(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m := NewManager(ManagerOptions{Retention: 1})

	ids := []string{"old", "mid", "new"}
	for _, id := range ids {
		ds := sizedDataset(t, 6, 60)
		_, s, err := m.Create(id, ds, pipeline.Config{K: 1, Budget: 4}, SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := answerAll(s, ds); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// The watcher applies retention asynchronously after the engine
	// returns; poll briefly.
	deadline := time.After(5 * time.Second)
	for {
		if len(m.List()) == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("retention not applied: %d sessions remain", len(m.List()))
		case <-time.After(time.Millisecond):
		}
	}
	if _, ok := m.Get("new"); !ok {
		t.Error("newest finished session evicted; want it retained")
	}
	for _, id := range []string{"old", "mid"} {
		if _, ok := m.Get(id); ok {
			t.Errorf("session %s not evicted", id)
		}
	}
	snap := m.Metrics().Registry().Snapshot()
	rounds := snap["session_rounds_total"]
	if len(rounds.Values) != 1 {
		t.Errorf("per-session metric labels after eviction = %v, want only the retained session",
			rounds.Values)
	}
	if got := snap["manager_sessions_evicted_total"]; got.Value == nil || *got.Value != 2 {
		t.Errorf("evicted counter = %+v, want 2", got)
	}
}

// TestManagerHTTPErrors walks the /v1 surface's error contract: 400 on
// malformed payloads, 404 on unknown sessions, 405 with Allow on wrong
// methods, 409 on duplicate names.
func TestManagerHTTPErrors(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m := NewManager(ManagerOptions{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	mc := NewManagerClient(srv.URL)

	ds := sizedDataset(t, 6, 70)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	okReq := CreateSessionRequest{
		Name:    "dup",
		Dataset: dsBuf.Bytes(),
		Config:  SessionConfig{Budget: 4},
	}
	if _, err := mc.Create(ctx, okReq); err != nil {
		t.Fatal(err)
	}

	wantStatus := func(err error, code int, label string) {
		t.Helper()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != code {
			t.Errorf("%s: err = %v, want HTTP %d", label, err, code)
		}
	}
	_, err := mc.Create(ctx, okReq)
	wantStatus(err, http.StatusConflict, "duplicate name")
	_, err = mc.Create(ctx, CreateSessionRequest{Dataset: dsBuf.Bytes(), Config: SessionConfig{}})
	wantStatus(err, http.StatusBadRequest, "missing budget")
	_, err = mc.Create(ctx, CreateSessionRequest{Config: SessionConfig{Budget: 4}})
	wantStatus(err, http.StatusBadRequest, "missing dataset")
	_, err = mc.Create(ctx, CreateSessionRequest{
		Name: "bad/name", Dataset: dsBuf.Bytes(), Config: SessionConfig{Budget: 4},
	})
	wantStatus(err, http.StatusBadRequest, "invalid name")
	_, err = mc.Create(ctx, CreateSessionRequest{
		Name: "badrt", Dataset: dsBuf.Bytes(),
		Config: SessionConfig{Budget: 4, RoundTimeout: "not-a-duration"},
	})
	wantStatus(err, http.StatusBadRequest, "bad round_timeout")
	_, err = mc.Info(ctx, "ghost")
	wantStatus(err, http.StatusNotFound, "unknown session info")
	err = mc.Cancel(ctx, "ghost")
	wantStatus(err, http.StatusNotFound, "unknown session cancel")
	if _, err := mc.Session("ghost").Status(ctx); err == nil {
		t.Error("proxy to unknown session succeeded")
	}

	// Wrong method on a collection route: instrumented 405 with Allow.
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/sessions", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/sessions = %d, want 405", resp.StatusCode)
	}
	if got := resp.Header.Get("Allow"); got != "GET, POST" {
		t.Errorf("Allow = %q, want \"GET, POST\"", got)
	}
	if got := m.Metrics().http.methodRejected.Value(); got != 1 {
		t.Errorf("manager method rejected counter = %v, want 1", got)
	}

	// The cancel route works and flips the state.
	if err := mc.Cancel(ctx, "dup"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		info, err := mc.Info(ctx, "dup")
		if err != nil {
			t.Fatal(err)
		}
		if info.State == StateCancelled {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("state after cancel = %q, want cancelled", info.State)
		case <-time.After(time.Millisecond):
		}
	}
}
