package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/belief"
	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
	"hcrowd/internal/journal"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
	"hcrowd/internal/server"
	"hcrowd/internal/taskselect"
)

// runLadder measures every layer's unit cost on one fixture derived
// from the seed: Figure 2's dataset shape with MV-initialized beliefs.
// The rungs climb from the entropy kernel to an HTTP answer round trip.
func runLadder(ctx context.Context, r *runner) error {
	sz := r.sz
	cfg := dataset.DefaultSentiConfig()
	cfg.NumTasks = sz.ladderTasks
	seed := r.seed*1000 + 999
	ds, err := dataset.SentiLike(rngutil.New(seed), cfg)
	if err != nil {
		return err
	}
	ce, _ := ds.Split()
	t0 := time.Now()
	if err := ladderAggregate(r, ds, seed); err != nil {
		return err
	}
	if err := ladderKernels(r, ds, ce); err != nil {
		return err
	}
	if err := ladderSelect(ctx, r, ds, ce, seed); err != nil {
		return err
	}
	if err := ladderJournal(r); err != nil {
		return err
	}
	if err := ladderAnswer(r, seed); err != nil {
		return err
	}
	r.printf("ladder measured in %.3g s", time.Since(t0).Seconds())
	return nil
}

// medianOf times n calls of f and returns the median in seconds.
func medianOf(n int, f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	return Median(ts), nil
}

// perCall times batches of calls until each batch runs for at least
// 10 ms and returns the median of five batches, in seconds per call.
func perCall(f func() error) (float64, error) {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		if time.Since(t) >= 10*time.Millisecond {
			break
		}
		n *= 2
	}
	batch, err := medianOf(5, func() error {
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	})
	return batch / float64(n), err
}

// ladderAggregate times each Figure 2 baseline on the preliminary
// matrix plus ladderExtra expert answers, and counts one call's heap
// allocations (the calls run serially, so the process-wide count is the
// call's).
func ladderAggregate(r *runner, ds *dataset.Dataset, seed int64) error {
	var m *dataset.Matrix
	var err error
	extra := 0
	withAnswers, err := medianOf(10, func() error {
		extra++
		m, err = ds.WithExpertAnswers(rngutil.New(seed+int64(extra)), r.sz.ladderExtra)
		return err
	})
	if err != nil {
		return err
	}
	r.put("dataset.with_expert_answers.call_us", withAnswers*1e6)
	for _, agg := range aggregate.Registry(seed) {
		m0 := mallocs()
		if _, err := agg.Aggregate(m); err != nil {
			return fmt.Errorf("%s: %w", agg.Name(), err)
		}
		r.put("aggregate."+agg.Name()+".allocs_per_call", float64(mallocs()-m0))
		d, err := medianOf(r.sz.ladderAggReps, func() error {
			_, err := agg.Aggregate(m)
			return err
		})
		if err != nil {
			return err
		}
		r.put("aggregate."+agg.Name()+".call_ms", d*1e3)
	}
	return nil
}

// qualitySink keeps the compiler from dropping the timed Quality calls.
var qualitySink float64

// ladderKernels times the family-entropy kernels, the belief update and
// the belief quality on the fixture's first task.
func ladderKernels(r *runner, ds *dataset.Dataset, ce crowd.Crowd) error {
	beliefs, err := pipeline.InitBeliefs(ds, aggregate.MV{}, false)
	if err != nil {
		return err
	}
	d := beliefs[0]
	facts := []int{0, 2}
	h, err := perCall(func() error {
		_, err := taskselect.CondEntropy(d, ce, facts)
		return err
	})
	if err != nil {
		return err
	}
	r.put("taskselect.condentropy.ns", h*1e9)
	assigns := []taskselect.Assign{{Fact: 0, Worker: ce[0]}, {Fact: 2, Worker: ce[0]}, {Fact: 0, Worker: ce[1]}, {Fact: 4, Worker: ce[1]}}
	ha, err := perCall(func() error {
		_, err := taskselect.CondEntropyAssign(d, assigns)
		return err
	})
	if err != nil {
		return err
	}
	r.put("taskselect.condentropy_assign.ns", ha*1e9)
	fam := crowd.AnswerFamily{{Worker: ce[0], Facts: []int{0, 1}, Values: []bool{true, false}}}
	// A belief updated over and over drifts into subnormal numbers, which
	// would time the FPU's slow path; start again from d now and then.
	var u *belief.Dist
	updates := 0
	up, err := perCall(func() error {
		if updates%16 == 0 {
			u = d.Clone()
		}
		updates++
		return u.Update(fam)
	})
	if err != nil {
		return err
	}
	r.put("belief.update.us", up*1e6)
	// The checking loop sums every task's quality after every round, so
	// at hc-loop's size this call is most of a round.
	q, err := perCall(func() error {
		qualitySink += d.Quality()
		return nil
	})
	if err != nil {
		return err
	}
	r.put("belief.quality.us", q*1e6)
	return nil
}

// ladderSelect drives the two incremental selection engines the way
// the checking loop does: select, answer the picks, update, invalidate.
// Only the selection calls are timed.
func ladderSelect(ctx context.Context, r *runner, ds *dataset.Dataset, ce crowd.Crowd, seed int64) error {
	rounds := r.sz.ladderRounds
	beliefs, err := pipeline.InitBeliefs(ds, aggregate.MV{}, false)
	if err != nil {
		return err
	}
	src := pipeline.NewSimulated(seed+1, ds)
	state := taskselect.NewSelectionState(0)
	p := taskselect.Problem{Beliefs: beliefs, Experts: ce}
	var sel []float64
	for i := 0; i < rounds; i++ {
		t := time.Now()
		picks, err := state.Select(ctx, p, 3)
		if err != nil {
			return err
		}
		sel = append(sel, time.Since(t).Seconds())
		for _, c := range picks {
			fam, err := src.Answers(ce, []int{ds.Tasks[c.Task][c.Fact]})
			if err != nil {
				return err
			}
			for k := range fam {
				fam[k].Facts = []int{c.Fact}
			}
			if err := beliefs[c.Task].Update(fam); err != nil {
				return err
			}
			state.Invalidate(c.Task)
		}
	}
	r.put("taskselect.select.us", Median(sel)*1e6)

	if beliefs, err = pipeline.InitBeliefs(ds, aggregate.MV{}, false); err != nil {
		return err
	}
	rng := rngutil.New(seed + 2)
	assign := taskselect.NewAssignState(nil, 0, 0)
	p = taskselect.Problem{Beliefs: beliefs, Experts: ce}
	sel = sel[:0]
	for i := 0; i < rounds; i++ {
		t := time.Now()
		units, err := assign.SelectAssign(ctx, p, 4)
		if err != nil {
			return err
		}
		sel = append(sel, time.Since(t).Seconds())
		for _, u := range units {
			fam := crowd.SimulateAnswerFamily(rng, crowd.Crowd{u.Worker}, []int{ds.Tasks[u.Task][u.Fact]}, ds.TruthFn())
			for k := range fam {
				fam[k].Facts = []int{u.Fact}
			}
			if err := beliefs[u.Task].Update(fam); err != nil {
				return err
			}
			assign.Invalidate(u.Task)
		}
	}
	r.put("taskselect.select_assign.us", Median(sel)*1e6)
	return nil
}

// ladderJournal appends ladderProbes 64-byte records with an fsync each
// in the run's journal directory: the device's durability floor.
func ladderJournal(r *runner) error {
	w, err := journal.Create(filepath.Join(r.dir, "ladder.journal"))
	if err != nil {
		return err
	}
	payload := make([]byte, 55) // 55 + 9 bytes of framing = 64
	var l Latency
	for i := 0; i < r.sz.ladderProbes; i++ {
		t := time.Now()
		if err := w.Append(journal.Record{Type: 1, Payload: payload}); err != nil {
			w.Close() //hclint:ignore errcheck-lite the append error is the one to report
			return err
		}
		if err := w.Sync(); err != nil {
			w.Close() //hclint:ignore errcheck-lite the sync error is the one to report
			return err
		}
		l.Add(time.Since(t).Seconds())
	}
	if err := w.Close(); err != nil {
		return err
	}
	r.put("journal.append_sync.p50_us", l.Percentile(50)*1e6)
	r.put("journal.append_sync.p99_us", l.Percentile(99)*1e6)
	r.printf("journal.append_sync %s", l.Summary())
	return nil
}

// ladderAnswer times the answer path without a journal: Session.Answer
// in process, then POST /answers over loopback HTTP, on a closed-loop
// session of the serve-ack shape.
func ladderAnswer(r *runner, seed int64) error {
	c, _, err := newSessionConfig(seed, r.sz.ackTasks, server.SessionConfig{K: 1, Budget: float64(2 * r.sz.ladderRounds), Seed: seed})
	if err != nil {
		return err
	}
	m := server.NewManager(server.ManagerOptions{})
	defer drain(m)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	_, s, err := m.CreateFromRequest(c.req)
	if err != nil {
		return err
	}
	var inproc Latency
	err = drive(c, func(e string) (bool, error) {
		round, facts, ok := s.Queries(e)
		if !ok {
			return s.Status().Done, nil
		}
		values := c.answer(e, facts)
		t := time.Now()
		err := s.Answer(round, e, values)
		inproc.Add(time.Since(t).Seconds())
		return false, err
	})
	if err != nil {
		return err
	}
	r.put("server.session_answer.us", inproc.Percentile(50)*1e6)

	cl := newClient(srv.URL)
	defer cl.hc.CloseIdleConnections()
	req := c.req
	req.Name = "ladder"
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if code, resp, err := cl.do("POST", "/v1/sessions", body); err != nil || code != http.StatusCreated {
		return fmt.Errorf("ladder create: %d %s %v", code, resp, err)
	}
	var overHTTP Latency
	err = drive(c, func(e string) (bool, error) {
		code, resp, err := cl.do("GET", "/v1/sessions/ladder/queries?worker="+e, nil)
		if err != nil {
			return false, err
		}
		if code == http.StatusNoContent {
			s, _ := m.Get("ladder")
			return s.Status().Done, nil
		}
		var q server.Query
		if err := json.Unmarshal(resp, &q); err != nil {
			return false, err
		}
		ans, err := json.Marshal(map[string]any{"round": q.Round, "worker": e, "values": c.answer(e, q.Facts)})
		if err != nil {
			return false, err
		}
		t := time.Now()
		code, resp, err = cl.do("POST", "/v1/sessions/ladder/answers", ans)
		overHTTP.Add(time.Since(t).Seconds())
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("ladder answer: %d %s", code, resp)
		}
		return false, err
	})
	if err != nil {
		return err
	}
	r.put("server.http_answer.p50_us", overHTTP.Percentile(50)*1e6)
	return nil
}
