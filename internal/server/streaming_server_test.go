package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/dataset"
	"hcrowd/internal/journal"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
)

// copyDataset deep-copies a dataset through its serialized form, so a
// session can mutate its own instance without aliasing the original.
func copyDataset(t *testing.T, ds *dataset.Dataset) *dataset.Dataset {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := dataset.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// streamFixture builds the shared material of the streaming tests: a
// base dataset, a deterministic fragment sequence, and a truth oracle —
// the base dataset with every fragment pre-admitted, so flipAnswers can
// resolve any global fact index a session will ever publish, no matter
// when that session folds the fragments in.
func streamFixture(t *testing.T, tasks int, seed int64, nFrags int) (ds *dataset.Dataset, frags []*dataset.Fragment, oracle *dataset.Dataset) {
	t.Helper()
	ds = sizedDataset(t, tasks, seed)
	rng := rngutil.New(seed + 100)
	cfg := dataset.DefaultSentiConfig()
	for i := 0; i < nFrags; i++ {
		fr, err := dataset.SentiFragment(rng, ds, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		frags = append(frags, fr)
	}
	oracle = copyDataset(t, ds)
	for _, fr := range frags {
		if _, _, err := oracle.Admit(fr); err != nil {
			t.Fatal(err)
		}
	}
	return ds, frags, oracle
}

// driveUntilParked answers rounds with the flip policy until the engine
// parks in the admission source awaiting fragments — the deterministic
// point both the reference and the journaled run key their admissions
// on, so the fold lands at the identical round boundary in every run.
func driveUntilParked(s *Session, oracle *dataset.Dataset) error {
	deadline := time.After(20 * time.Second)
	for {
		if s.admitParked() {
			return nil
		}
		select {
		case <-s.finished:
			return fmt.Errorf("session finished before parking for admissions")
		case <-deadline:
			return fmt.Errorf("session never parked awaiting admissions")
		default:
		}
		progressed := false
		for _, id := range s.Experts() {
			round, facts, ok := s.Queries(id)
			if !ok {
				continue
			}
			if err := s.Answer(round, id, flipAnswers(oracle, id, facts)); err != nil {
				return err
			}
			progressed = true
		}
		if !progressed {
			time.Sleep(time.Millisecond)
		}
	}
}

// streamingRecoverRoundTrip is the mid-stream kill-and-recover scenario
// for a streaming session: run the admission schedule uninterrupted as
// the reference, run the same schedule journaled but kill the service
// after the first admission mid-round, recover from the journal alone,
// finish the schedule, and demand byte-identical labels and final
// checkpoint. Both engine flavors run it in the -count=2 suite.
func streamingRecoverRoundTrip(t *testing.T, costAware bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ds, frags, oracle := streamFixture(t, 6, 61, 2)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	sc := SessionConfig{K: 1, Budget: 8, BudgetWindow: 6, Seed: 5}
	if costAware {
		sc.CostAware = true
		sc.CostModel = "accuracy"
	}

	// schedule drives one session through the full admission plan:
	// exhaust the budget, admit frags[0], exhaust again, admit frags[1]
	// with final, and let the run conclude.
	schedule := func(s *Session, fromStep int) error {
		if fromStep <= 0 {
			if err := driveUntilParked(s, oracle); err != nil {
				return err
			}
			if err := s.AdmitTasks(frags[:1], false); err != nil {
				return err
			}
		}
		if err := driveUntilParked(s, oracle); err != nil {
			return err
		}
		if err := s.AdmitTasks(frags[1:2], true); err != nil {
			return err
		}
		return driveFlip(s, oracle)
	}

	// Reference: the identical schedule, uninterrupted and unjournaled.
	agg, err := aggregate.ByName("EBCC", sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	refDS := copyDataset(t, ds)
	couple, err := refDS.EstimateCoupling()
	if err != nil {
		t.Fatal(err)
	}
	cost, err := CostModelByName(sc.CostModel)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := pipeline.Config{
		K: sc.K, Budget: sc.Budget, BudgetWindow: sc.BudgetWindow,
		Init: agg, PriorCoupling: couple, Cost: cost,
	}
	ref, err := NewSession(ctx, refDS, refCfg, SessionOptions{CostAware: costAware})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule(ref, 0); err != nil {
		t.Fatalf("reference: %v", err)
	}
	refRes, err := ref.Wait(ctx)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	refCk := checkpointBytes(t, ref.Checkpoint())
	ref.Close()
	if refRes.TasksAdmitted == 0 {
		t.Fatal("reference run admitted no tasks; the schedule never streamed")
	}

	// Journaled run, killed mid-round after the first admission. Close
	// without Drain stands in for SIGKILL: only what each ack fsynced
	// survives. CompactEvery 2 makes at least one compaction carry the
	// admit records across a log rewrite.
	dir := t.TempDir()
	m1 := NewManager(ManagerOptions{JournalDir: dir, CompactEvery: 2})
	id, s1, err := m1.CreateFromRequest(CreateSessionRequest{
		Name: "stream-job", Dataset: dsBuf.Bytes(), Config: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := driveUntilParked(s1, oracle); err != nil {
		t.Fatalf("pre-admit drive: %v", err)
	}
	if err := s1.AdmitTasks(frags[:1], false); err != nil {
		t.Fatal(err)
	}
	if _, err := driveFlipN(s1, oracle, 2); err != nil {
		t.Fatalf("post-admit drive: %v", err)
	}
	s1.Close()

	// Restart: a fresh manager over the same journal dir, then finish
	// the remaining schedule.
	m2 := NewManager(ManagerOptions{JournalDir: dir, CompactEvery: 2})
	ids, err := m2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("recovered %v, want [%s]", ids, id)
	}
	s2, ok := m2.Get(id)
	if !ok {
		t.Fatal("recovered session not registered")
	}
	if err := schedule(s2, 1); err != nil {
		t.Fatalf("post-recovery schedule: %v", err)
	}
	res, err := s2.Wait(ctx)
	if err != nil {
		t.Fatalf("recovered run: %v", err)
	}

	gotLabels, _ := json.Marshal(res.Labels)
	wantLabels, _ := json.Marshal(refRes.Labels)
	if !bytes.Equal(gotLabels, wantLabels) {
		t.Errorf("recovered labels diverge from uninterrupted run\n got %s\nwant %s", gotLabels, wantLabels)
	}
	if res.BudgetSpent != refRes.BudgetSpent {
		t.Errorf("recovered spend %v, uninterrupted %v", res.BudgetSpent, refRes.BudgetSpent)
	}
	if gotCk := checkpointBytes(t, s2.Checkpoint()); !bytes.Equal(gotCk, refCk) {
		t.Errorf("recovered final checkpoint diverges from uninterrupted run\n got %s\nwant %s", gotCk, refCk)
	}
	if len(res.Labels) != oracle.NumFacts() {
		t.Errorf("recovered run labeled %d facts, want the grown %d", len(res.Labels), oracle.NumFacts())
	}
}

// TestStreamingRecoverUniformDeterministicGivenSeed proves the streaming
// determinism claim for the uniform loop: same seed, same admission
// schedule, killed and recovered mid-stream — byte-identical labels and
// final checkpoint. Runs in the -count=2 determinism suite.
func TestStreamingRecoverUniformDeterministicGivenSeed(t *testing.T) {
	streamingRecoverRoundTrip(t, false)
}

// TestStreamingRecoverCostAwareDeterministicGivenSeed is the same proof
// for the cost-aware loop.
func TestStreamingRecoverCostAwareDeterministicGivenSeed(t *testing.T) {
	streamingRecoverRoundTrip(t, true)
}

// TestAdmitTasksStateErrors pins the admission error taxonomy at the
// Session level: not streaming, stream ended, invalid fragments, and
// unknown answer workers.
func TestAdmitTasksStateErrors(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A closed-loop session (no budget window) refuses admissions.
	plain := newTestSession(t, 4)
	if err := plain.AdmitTasks([]*dataset.Fragment{{Truth: []bool{true}, Tasks: [][]int{{0}}}}, false); !errors.Is(err, ErrNotStreaming) {
		t.Errorf("closed-loop AdmitTasks error = %v, want ErrNotStreaming", err)
	}

	ds, frags, oracle := streamFixture(t, 5, 62, 1)
	agg, err := aggregate.ByName("EBCC", 3)
	if err != nil {
		t.Fatal(err)
	}
	couple, err := ds.EstimateCoupling()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(ctx, ds, pipeline.Config{
		K: 1, Budget: 6, BudgetWindow: 5, Init: agg, PriorCoupling: couple,
	}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.AdmitTasks(nil, false); !errors.Is(err, ErrBadFragment) {
		t.Errorf("empty non-final batch error = %v, want ErrBadFragment", err)
	}
	bad := &dataset.Fragment{Truth: []bool{true, false}, Tasks: [][]int{{0}}} // fact 1 unassigned
	if err := s.AdmitTasks([]*dataset.Fragment{bad}, false); !errors.Is(err, ErrBadFragment) {
		t.Errorf("invalid fragment error = %v, want ErrBadFragment", err)
	}
	stranger := &dataset.Fragment{
		Truth:   []bool{true},
		Tasks:   [][]int{{0}},
		Answers: []dataset.FragmentAnswer{{Fact: 0, Worker: "nobody", Value: true}},
	}
	if err := s.AdmitTasks([]*dataset.Fragment{stranger}, false); !errors.Is(err, ErrBadFragment) {
		t.Errorf("unknown-worker fragment error = %v, want ErrBadFragment", err)
	}
	st := s.Status()
	if !st.Streaming || st.AdmittedFragments != 0 || st.StreamEnded {
		t.Errorf("status after rejected admits = %+v, want streaming, zero fragments, open stream", st)
	}

	if err := s.AdmitTasks(frags[:1], true); err != nil {
		t.Fatalf("valid final admit: %v", err)
	}
	if err := s.AdmitTasks(frags[:1], false); !errors.Is(err, ErrStreamEnded) {
		t.Errorf("admit after final error = %v, want ErrStreamEnded", err)
	}
	if st := s.Status(); st.AdmittedFragments != 1 || !st.StreamEnded {
		t.Errorf("status after final admit = %+v, want 1 fragment, ended stream", st)
	}

	if err := driveFlip(s, oracle); err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksAdmitted != len(frags[0].Tasks) {
		t.Errorf("TasksAdmitted = %d, want %d", res.TasksAdmitted, len(frags[0].Tasks))
	}
	if err := s.AdmitTasks(frags[:1], false); !errors.Is(err, ErrClosed) {
		t.Errorf("admit after completion error = %v, want ErrClosed", err)
	}
}

// TestStreamingHTTPTasksEndpoint pins the POST /tasks HTTP taxonomy over
// the /v1 API: 202 on accept and on the pure final close, 409 for a
// non-streaming session and for a closed stream, 422 for an invalid
// fragment, 400 for malformed JSON.
func TestStreamingHTTPTasksEndpoint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds, frags, oracle := streamFixture(t, 5, 63, 1)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	m := NewManager(ManagerOptions{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	mc := NewManagerClient(srv.URL)

	info, err := mc.Create(ctx, CreateSessionRequest{
		Name:    "stream",
		Dataset: dsBuf.Bytes(),
		Config:  SessionConfig{K: 1, Budget: 6, BudgetWindow: 5, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	plainInfo, err := mc.Create(ctx, CreateSessionRequest{
		Name:    "plain",
		Dataset: dsBuf.Bytes(),
		Config:  SessionConfig{K: 1, Budget: 4, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	wantStatus := func(err error, code int, label string) {
		t.Helper()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != code {
			t.Errorf("%s: error = %v, want HTTP %d", label, err, code)
		}
	}
	cl := mc.Session(info.ID)
	plainCl := mc.Session(plainInfo.ID)

	wantStatus(plainCl.AdmitTasks(ctx, frags[:1], false), 409, "non-streaming session")
	bad := &dataset.Fragment{Truth: []bool{true, false}, Tasks: [][]int{{0}}}
	wantStatus(cl.AdmitTasks(ctx, []*dataset.Fragment{bad}, false), 422, "invalid fragment")
	if err := cl.AdmitTasks(ctx, frags[:1], false); err != nil {
		t.Fatalf("valid admit: %v", err)
	}
	if err := cl.AdmitTasks(ctx, nil, true); err != nil {
		t.Fatalf("pure final close: %v", err)
	}
	wantStatus(cl.AdmitTasks(ctx, frags[:1], false), 409, "closed stream")

	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Streaming || st.AdmittedFragments != 1 || !st.StreamEnded {
		t.Errorf("status = %+v, want streaming with 1 fragment and an ended stream", st)
	}

	// Malformed JSON is a 400 from the decoder, before AdmitTasks runs.
	resp, err := srv.Client().Post(
		srv.URL+"/v1/sessions/"+info.ID+"/tasks", "application/json",
		bytes.NewReader([]byte(`{"fragments": 7}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed payload returned %d, want 400", resp.StatusCode)
	}

	// Drive both sessions home so the server shuts down cleanly.
	s, _ := m.Get(info.ID)
	if err := driveFlip(s, oracle); err != nil {
		t.Fatal(err)
	}
	p, _ := m.Get(plainInfo.ID)
	if err := driveFlip(p, ds); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingDrainParkedEngine pins graceful shutdown of a parked
// streaming session: the drain wakes the engine out of its admission
// wait, the run concludes, and the checkpoint reflects every completed
// round.
func TestStreamingDrainParkedEngine(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds, _, oracle := streamFixture(t, 5, 64, 1)
	agg, err := aggregate.ByName("EBCC", 3)
	if err != nil {
		t.Fatal(err)
	}
	couple, err := ds.EstimateCoupling()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(ctx, ds, pipeline.Config{
		K: 1, Budget: 6, BudgetWindow: 5, Init: agg, PriorCoupling: couple,
	}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := driveUntilParked(s, oracle); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if ck == nil {
		t.Fatal("drain of a parked streaming session returned no checkpoint")
	}
	res, err := s.Wait(ctx)
	if err != nil {
		t.Fatalf("drained run: %v", err)
	}
	if res == nil || len(res.Labels) != ds.NumFacts() {
		t.Fatalf("drained run result = %+v, want labels for %d facts", res, ds.NumFacts())
	}
}

// TestConcurrentFinalAnswerSingleSeal races a full panel of concurrent
// answers against a short round timeout on a journaled session, many
// rounds in a row, then re-parses the journal: exactly one seal per
// round must have been written (parseJournal rejects a second seal for
// an already-sealed round), and the recovered session must finish with
// labels. Run under -race, it also proves the seal path is data-race
// free.
func TestConcurrentFinalAnswerSingleSeal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ds := sizedDataset(t, 6, 65)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m := NewManager(ManagerOptions{JournalDir: dir})
	id, s, err := m.CreateFromRequest(CreateSessionRequest{
		Name:    "sealrace",
		Dataset: dsBuf.Bytes(),
		Config:  SessionConfig{K: 1, Budget: 16, Seed: 6, RoundTimeout: "2ms"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// One goroutine per expert, all hammering the open round at once, so
	// the panel-completing answer races the expiry timer round after
	// round.
	var wg sync.WaitGroup
	for _, wid := range s.Experts() {
		wg.Add(1)
		go func(wid string) {
			defer wg.Done()
			for {
				select {
				case <-s.finished:
					return
				default:
				}
				round, facts, ok := s.Queries(wid)
				if !ok {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				// Rejections are expected: the round may seal (full panel
				// or timeout) between Queries and Answer.
				s.Answer(round, wid, flipAnswers(ds, wid, facts)) //nolint:errcheck
			}
		}(wid)
	}
	res, err := s.Wait(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Labels) != ds.NumFacts() {
		t.Fatalf("run labeled %d facts, want %d", len(res.Labels), ds.NumFacts())
	}

	// The journal must parse cleanly — a double seal would fail with
	// "seal for round N, which is not open".
	deadline := time.After(5 * time.Second)
	for {
		if st, _ := m.Info(id); st.State.finished() {
			break
		}
		select {
		case <-deadline:
			t.Fatal("session never reached a terminal state")
		case <-time.After(2 * time.Millisecond):
		}
	}
	_, recs, err := journal.Open(filepath.Join(dir, id+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseJournal(recs); err != nil {
		t.Fatalf("journal of the racing run does not parse: %v", err)
	}
	seals := make(map[int]int)
	for _, r := range recs {
		if r.Type != recRoundSeal {
			continue
		}
		var sr roundSealRec
		if err := json.Unmarshal(r.Payload, &sr); err != nil {
			t.Fatal(err)
		}
		seals[sr.Round]++
	}
	for round, n := range seals {
		if n != 1 {
			t.Errorf("round %d sealed %d times, want exactly once", round, n)
		}
	}
}

// admitPayload marshals a taskAdmitRec for hand-built journals.
func admitPayload(t *testing.T, seq int, final bool, fr *dataset.Fragment) []byte {
	t.Helper()
	p, err := json.Marshal(taskAdmitRec{Seq: seq, Final: final, Fragment: fr})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestJournalTaskAdmitGrammar extends the journal grammar to the
// streaming records: admissions must be contiguous from 1, never follow
// a final, carry a fragment unless final, and every roundOpen/checkpoint
// admit-seq must stay within the journaled admissions and never run
// behind the prior high-water mark.
func TestJournalTaskAdmitGrammar(t *testing.T) {
	frag := &dataset.Fragment{Truth: []bool{true, false}, Tasks: [][]int{{0, 1}}}
	ro := func(round, admitSeq int, facts []int, panel []string) []byte {
		p, err := json.Marshal(roundOpenRec{Round: round, Facts: facts, Panel: panel, AdmitSeq: admitSeq})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name    string
		recs    []journal.Record
		wantErr string
	}{
		{
			name: "seq not contiguous",
			recs: []journal.Record{
				{Type: recTaskAdmit, Payload: admitPayload(t, 2, false, frag)},
			},
			wantErr: "task admit seq 2, want 1",
		},
		{
			name: "admit after final",
			recs: []journal.Record{
				{Type: recTaskAdmit, Payload: admitPayload(t, 1, true, frag)},
				{Type: recTaskAdmit, Payload: admitPayload(t, 2, false, frag)},
			},
			wantErr: "after the stream was finalized",
		},
		{
			name: "fragmentless non-final admit",
			recs: []journal.Record{
				{Type: recTaskAdmit, Payload: admitPayload(t, 1, false, nil)},
			},
			wantErr: "has no fragment and is not final",
		},
		{
			name: "invalid fragment",
			recs: []journal.Record{
				{Type: recTaskAdmit, Payload: admitPayload(t, 1, false,
					&dataset.Fragment{Truth: []bool{true, false}, Tasks: [][]int{{0}}})},
			},
			wantErr: "fragment fact 1 belongs to no task",
		},
		{
			name: "round open ahead of admits",
			recs: []journal.Record{
				{Type: recTaskAdmit, Payload: admitPayload(t, 1, false, frag)},
				{Type: recRoundOpen, Payload: ro(1, 2, []int{0}, []string{"e0"})},
			},
			wantErr: "planned under admit seq 2 but only 1 admits journaled",
		},
		{
			name: "round open behind the high-water mark",
			recs: []journal.Record{
				{Type: recTaskAdmit, Payload: admitPayload(t, 1, false, frag)},
				{Type: recRoundOpen, Payload: ro(1, 1, []int{0}, []string{"e0"})},
				{Type: recAnswer, Payload: mustJSON(t, answerRec{Round: 1, Worker: "e0", Values: []bool{true}})},
				{Type: recRoundSeal, Payload: mustJSON(t, roundSealRec{Round: 1, Answers: 1})},
				{Type: recRoundOpen, Payload: ro(2, 0, []int{1}, []string{"e0"})},
			},
			wantErr: "admit seq 0 behind the prior high-water mark 1",
		},
		{
			name: "valid admit stream",
			recs: []journal.Record{
				{Type: recTaskAdmit, Payload: admitPayload(t, 1, false, frag)},
				{Type: recTaskAdmit, Payload: admitPayload(t, 2, true, nil)},
			},
		},
	}
	created, _ := testCreatedPayload(t, "grammar")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := append([]journal.Record{{Type: recCreated, Payload: created}}, tc.recs...)
			state, err := parseJournal(recs)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				if len(state.admits) != 2 || !state.admitFinal {
					t.Errorf("parsed %d admits (final=%v), want 2 with a finalized stream",
						len(state.admits), state.admitFinal)
				}
				return
			}
			if err == nil {
				t.Fatalf("parse accepted a journal violating %q", tc.wantErr)
			}
			if !contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}

	// A journal with admissions whose creation config has no budget
	// window must fail recovery, not silently drop the fragments.
	dir := t.TempDir()
	writeJournalRecords(t, filepath.Join(dir, "grammar.journal"), []journal.Record{
		{Type: recCreated, Payload: created},
		{Type: recTaskAdmit, Payload: admitPayload(t, 1, false, frag)},
	})
	m := NewManager(ManagerOptions{JournalDir: dir})
	if _, err := m.Recover(); err == nil || !contains(err.Error(), "no budget window") {
		t.Errorf("recovery error = %v, want a no-budget-window complaint", err)
	}
}

// mustJSON marshals v or fails the test.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	p, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// contains is strings.Contains without the import noise in table tests.
func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
