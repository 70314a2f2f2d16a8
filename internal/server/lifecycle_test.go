package server

import (
	"bytes"
	"context"
	"errors"
	"log"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hcrowd/internal/dataset"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
)

// waitForRound polls until the session publishes a round to the expert.
func waitForRound(t *testing.T, s *Session, expert string) (int, []int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if round, facts, ok := s.Queries(expert); ok {
			return round, facts
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no round published")
	return 0, nil
}

// TestStragglerAfterRoundCompleteRejected is the acceptance-criterion
// regression test for the straggler race: an answer posted after the
// round completes (here: after the timeout fires with a partial panel)
// must be rejected with ErrRoundClosed and must never change the family
// the pipeline consumes. The expiry is simulated deterministically —
// complete is set exactly as expireRound does at the deadline, but the
// done channel is held closed-pending so the engine stays parked and the
// straggler provably races only against the completed round, not against
// the loop consuming it.
func TestStragglerAfterRoundCompleteRejected(t *testing.T) {
	ds := testDataset(t)
	// Two experts, K=1, Budget=2: one pick costs |CE|=2, so if the round
	// closes with only one answer (spend 1), the remaining 1 cannot fund
	// another pick and the run ends — making the consumed family directly
	// observable in BudgetSpent.
	s, err := NewSession(context.Background(), ds,
		pipeline.Config{K: 1, Budget: 2}, SessionOptions{RoundTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	experts := s.Experts()
	if len(experts) != 2 {
		t.Fatalf("experts = %v, want 2", experts)
	}
	prompt, straggler := experts[0], experts[1]

	round, facts := waitForRound(t, s, prompt)
	values := make([]bool, len(facts))
	for i, f := range facts {
		values[i] = ds.Truth[f]
	}
	if err := s.Answer(round, prompt, values); err != nil {
		t.Fatal(err)
	}

	// The deadline passes: the round completes with the partial panel.
	s.mu.Lock()
	p := s.pending
	if p == nil || p.id != round {
		s.mu.Unlock()
		t.Fatalf("pending round changed underneath the test")
	}
	p.complete = true
	s.mu.Unlock()

	// Satellite fix 2: a completed round is no longer advertised.
	if _, _, ok := s.Queries(straggler); ok {
		t.Error("completed round still advertised to the unanswered expert")
	}

	// Satellite fix 1: the straggler's answer is rejected, not folded in.
	err = s.Answer(round, straggler, values)
	if !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("straggler answer: err = %v, want ErrRoundClosed", err)
	}
	s.mu.Lock()
	if len(p.answers) != 1 {
		s.mu.Unlock()
		t.Fatalf("straggler answer mutated the family: %d answers", len(p.answers))
	}
	if got := s.metrics.answersRejected.With("round_closed").Value(); got != 1 {
		s.mu.Unlock()
		t.Fatalf("round_closed rejections = %v, want 1", got)
	}
	// Release the engine; it must consume exactly the one-answer family.
	close(p.done)
	s.mu.Unlock()

	res, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetSpent != 1 {
		t.Errorf("budget spent %v, want 1 (one answer, straggler excluded)", res.BudgetSpent)
	}
}

// TestAnswerLoopSurvivesRoundConflict pins the client-side fix: when the
// round completes between Queries and Answer (here: the timeout fires
// while the slow expert is still thinking), the resulting 409 must not
// abort AnswerLoop — the loop re-polls and the session still finishes.
func TestAnswerLoopSurvivesRoundConflict(t *testing.T) {
	ds := testDataset(t)
	logBuf := &syncBuffer{}
	s, err := NewSession(context.Background(), ds,
		pipeline.Config{K: 1, Budget: 8},
		SessionOptions{RoundTimeout: 25 * time.Millisecond, Logger: log.New(logBuf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(sessionRoutes(s, nil))
	defer srv.Close()
	experts := s.Experts()
	fast, slow := experts[0], experts[1]

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c := NewClient(srv.URL)
	truthValues := func(facts []int) []bool {
		values := make([]bool, len(facts))
		for i, f := range facts {
			values[i] = ds.Truth[f]
		}
		return values
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() { // answers immediately, so every round expires ~25ms later
		defer wg.Done()
		errs <- c.AnswerLoop(ctx, fast, truthValues, time.Millisecond)
	}()
	go func() { // thinks 4× longer than the round timeout: always stale
		defer wg.Done()
		errs <- c.AnswerLoop(ctx, slow, func(facts []int) []bool {
			time.Sleep(100 * time.Millisecond)
			return truthValues(facts)
		}, time.Millisecond)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("AnswerLoop died on the benign conflict: %v", err)
		}
	}
	if st := s.Status(); !st.Done {
		t.Fatalf("session not done: %+v", st)
	}
	// The slow expert's posts really were rejected — the loops survived
	// actual conflicts, not an uncontested run.
	m := s.Metrics()
	rejected := m.answersRejected.With("round_closed").Value() +
		m.answersRejected.With("not_open").Value()
	if rejected == 0 {
		t.Error("no stale answers rejected; the conflict never happened")
	}
	if m.roundsExpired.Value() == 0 {
		t.Error("no rounds expired; the timeout never fired")
	}
	if !strings.Contains(logBuf.String(), "expired") {
		t.Error("round expiry not logged")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for cross-goroutine logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAnswerLoopBackoffGivesUp checks the transport-error path: against a
// dead server the loop retries with backoff and then surfaces the error
// instead of spinning forever.
func TestAnswerLoopBackoffGivesUp(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens there
	c.RetryBaseDelay = time.Millisecond
	c.RetryMaxDelay = 4 * time.Millisecond
	c.MaxRetries = 3
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	err := c.AnswerLoop(ctx, "e0", func([]int) []bool { return nil }, time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "giving up after") {
		t.Fatalf("err = %v, want giving-up error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("retry loop took %v; backoff not capped?", elapsed)
	}
}

// TestBackoffDelayCappedWithJitter pins the delay schedule's envelope.
func TestBackoffDelayCappedWithJitter(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	jitter := rand.New(rand.NewSource(1))
	for n := 1; n <= 64; n++ {
		d := backoffDelay(jitter, base, max, n)
		if d <= 0 || d > time.Duration(1.25*float64(max)) {
			t.Fatalf("attempt %d: delay %v outside (0, 1.25·max]", n, d)
		}
	}
	if d := backoffDelay(jitter, base, max, 1); d > time.Duration(1.25*float64(base)) {
		t.Errorf("first attempt delay %v exceeds jittered base", d)
	}
}

// TestConcurrentManyExpertSession runs a six-expert crowd through the
// full HTTP stack with every expert on its own AnswerLoop goroutine —
// the -race exercise for the round lifecycle under real contention.
func TestConcurrentManyExpertSession(t *testing.T) {
	cfg := dataset.DefaultSentiConfig()
	cfg.NumTasks = 6
	cfg.Crowd.NumExpert = 6
	ds, err := dataset.SentiLike(rngutil.New(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(context.Background(), ds, pipeline.Config{K: 2, Budget: 36}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(sessionRoutes(s, nil))
	defer srv.Close()

	c := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	experts := s.Experts()
	if len(experts) != 6 {
		t.Fatalf("experts = %d, want 6", len(experts))
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(experts))
	for _, id := range experts {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			errs <- c.AnswerLoop(ctx, id, func(facts []int) []bool {
				values := make([]bool, len(facts))
				for i, f := range facts {
					values[i] = ds.Truth[f]
				}
				return values
			}, time.Millisecond)
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetSpent != 36 {
		t.Errorf("budget spent %v, want 36", res.BudgetSpent)
	}
	// Every published answer-collection round closed with the full panel
	// (no timeout configured). Published rounds are per purchase, so they
	// can outnumber pipeline rounds when K spans several tasks.
	m := s.Metrics()
	if pub, done := m.roundsPublished.Value(), m.roundsCompleted.Value(); pub == 0 || pub != done {
		t.Errorf("rounds published %v vs completed %v", pub, done)
	}
}
