package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hcrowd"
	"hcrowd/internal/obsv"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/server"
)

func writeDataset(t *testing.T) string {
	t.Helper()
	cfg := hcrowd.DefaultSentiConfig()
	cfg.NumTasks = 5
	ds, err := hcrowd.GenerateSentiLike(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ds.Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSimModeCompletes(t *testing.T) {
	path := writeDataset(t)
	var out bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := run(ctx, []string{"-in", path, "-addr", "127.0.0.1:0", "-budget", "10", "-sim"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "listening on") || !strings.Contains(s, "done after") {
		t.Errorf("output: %q", s)
	}
}

func TestRunServesHTTP(t *testing.T) {
	path := writeDataset(t)
	var out bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const addr = "127.0.0.1:18764"
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-in", path, "-addr", addr, "-budget", "10"}, &out)
	}()
	// Poll /status until the server is up.
	var status struct {
		Done bool `json:"done"`
	}
	deadline := time.After(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/status")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&status)
			resp.Body.Close()
			if err == nil {
				break
			}
		}
		select {
		case <-deadline:
			t.Fatal("server never came up")
		case <-time.After(20 * time.Millisecond):
		}
	}
	// Experts endpoint works.
	resp, err := http.Get("http://" + addr + "/experts")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/experts = %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestRunSimMetricsSmoke is the end-to-end observability smoke: start a
// self-driving (-sim) server with -pprof, scrape GET /metrics while the
// session runs, and assert the round counters advance, GET /v1/metrics
// carries the same round count under the default session's label, and
// the pprof index answers. The budget is large enough that the session
// outlives the test, so the scrapes are deterministic; the test stops
// the server by cancelling the context. This is the check `make verify` runs.
func TestRunSimMetricsSmoke(t *testing.T) {
	path := writeDataset(t)
	var out bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const addr = "127.0.0.1:18765"
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-in", path, "-addr", addr, "-budget", "1e7", "-sim", "-pprof"}, &out)
	}()

	scrapePath := func(path string) (map[string]obsv.MetricSnapshot, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s = %d", path, resp.StatusCode)
		}
		var snap map[string]obsv.MetricSnapshot
		return snap, json.NewDecoder(resp.Body).Decode(&snap)
	}
	scrape := func() (map[string]obsv.MetricSnapshot, error) { return scrapePath("/metrics") }
	counter := func(snap map[string]obsv.MetricSnapshot, name string) float64 {
		if ms, ok := snap[name]; ok && ms.Value != nil {
			return *ms.Value
		}
		return 0
	}

	// Scrape until the pipeline has completed at least one round.
	var snap map[string]obsv.MetricSnapshot
	deadline := time.After(20 * time.Second)
	for {
		s, err := scrape()
		if err == nil && counter(s, "pipeline_rounds_total") > 0 {
			snap = s
			break
		}
		select {
		case <-deadline:
			t.Fatalf("metrics never advanced (last err: %v)", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	for _, name := range []string{
		"session_rounds_published_total",
		"session_rounds_completed_total",
		"session_answers_accepted_total",
		"selector_evals_total",
	} {
		if counter(snap, name) <= 0 {
			t.Errorf("counter %s not advancing: %+v", name, snap[name])
		}
	}
	// GET /v1/metrics folds the default session's registry in under its
	// session label: its round count lies between two root scrapes taken
	// before and after it.
	v1Rounds := func() float64 {
		t.Helper()
		before, err := scrape()
		if err != nil {
			t.Fatal(err)
		}
		v1, err := scrapePath("/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		after, err := scrape()
		if err != nil {
			t.Fatal(err)
		}
		got, ok := v1["pipeline_rounds_total"].Values["default"]
		lo, hi := counter(before, "pipeline_rounds_total"), counter(after, "pipeline_rounds_total")
		if !ok || got < lo || got > hi {
			t.Fatalf("/v1/metrics pipeline_rounds_total{default} = %v (present %v), want within root scrapes [%v, %v]", got, ok, lo, hi)
		}
		return got
	}
	// The counters keep advancing while the sim runs, in both scrapes.
	first := v1Rounds()
	deadline = time.After(20 * time.Second)
	for {
		s, err := scrape()
		if err == nil && counter(s, "pipeline_rounds_total") > first {
			snap = s
			break
		}
		select {
		case <-deadline:
			t.Fatalf("pipeline_rounds_total stuck at %v (last err: %v)", first, err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if v1 := v1Rounds(); v1 <= first {
		t.Errorf("/v1/metrics pipeline_rounds_total{default} stuck at %v", v1)
	}
	// The middleware counts a request after its handler returns, so a
	// client can read one scrape and open the next before the first is
	// counted: poll until a scrape has been counted per route.
	for until := time.Now().Add(20 * time.Second); len(snap["http_requests_total"].Values) == 0; {
		if time.Now().After(until) {
			t.Errorf("no per-route HTTP stats: %+v", snap["http_requests_total"])
			break
		}
		time.Sleep(10 * time.Millisecond)
		if s, err := scrape(); err == nil {
			snap = s
		}
	}

	// -pprof mounted the profiling index on the same listener.
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "listening on") {
		t.Errorf("output: %q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, []string{}, &out); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run(ctx, []string{"-in", "/missing.json"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	path := writeDataset(t)
	if err := run(ctx, []string{"-in", path, "-init", "nope"}, &out); err == nil {
		t.Error("bad init accepted")
	}
	if err := run(ctx, []string{"-in", path, "-addr", "256.0.0.1:99999"}, &out); err == nil {
		t.Error("bad address accepted")
	}
}

// TestRunServeSmokeDrain is the graceful-drain smoke `make serve-smoke`
// runs: start the service with a -checkpoint-dir, create a second
// session over the /v1 API, answer one full round on each session, then
// deliver the shutdown signal (the context run() gets from
// signal.NotifyContext) and assert both sessions' final checkpoints
// were persisted and load cleanly — the progress Ctrl-C must not lose.
func TestRunServeSmokeDrain(t *testing.T) {
	path := writeDataset(t)
	ckDir := filepath.Join(t.TempDir(), "ckpts")
	var out bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const addr = "127.0.0.1:18766"
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-in", path, "-addr", addr, "-budget", "1e6",
			"-checkpoint-dir", ckDir, "-drain-timeout", "5s",
		}, &out)
	}()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := hcrowd.ReadDataset(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	rawDS, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	testCtx, cancelReqs := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelReqs()
	mc := server.NewManagerClient("http://" + addr)
	waitUp := time.After(10 * time.Second)
	for {
		if _, err := mc.List(testCtx); err == nil {
			break
		}
		select {
		case <-waitUp:
			t.Fatal("server never came up")
		case <-time.After(20 * time.Millisecond):
		}
	}
	info, err := mc.Create(testCtx, server.CreateSessionRequest{
		Name:    "smoke2",
		Dataset: rawDS,
		Config:  server.SessionConfig{K: 1, Budget: 1e6, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "smoke2" {
		t.Fatalf("created id = %q", info.ID)
	}

	// Answer one full round per session (truthful answers), then wait for
	// the warm checkpoint to appear so the drain has progress to persist.
	answerRound := func(c *server.Client) {
		t.Helper()
		experts, err := c.Experts(testCtx)
		if err != nil {
			t.Fatal(err)
		}
		answered := make(map[string]bool)
		deadline := time.After(20 * time.Second)
		for len(answered) < len(experts) {
			progressed := false
			for _, id := range experts {
				if answered[id] {
					continue
				}
				q, ok, err := c.Queries(testCtx, id)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				values := make([]bool, len(q.Facts))
				for i, fi := range q.Facts {
					values[i] = ds.Truth[fi]
				}
				if err := c.Answer(testCtx, q.Round, id, values); err != nil {
					t.Fatal(err)
				}
				answered[id] = true
				progressed = true
			}
			if !progressed {
				select {
				case <-deadline:
					t.Fatalf("round never fully answered (%d/%d)", len(answered), len(experts))
				case <-time.After(2 * time.Millisecond):
				}
			}
		}
		for {
			_, ok, err := c.Checkpoint(testCtx)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				return
			}
			select {
			case <-deadline:
				t.Fatal("checkpoint never emitted")
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	answerRound(server.NewClient("http://" + addr)) // default session, legacy root routes
	answerRound(mc.Session("smoke2"))               // managed session, /v1 routes

	// Deliver the shutdown signal and wait for the graceful drain.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain and shut down")
	}

	for _, id := range []string{"default", "smoke2"} {
		raw, err := os.ReadFile(filepath.Join(ckDir, id+".ckpt.json"))
		if err != nil {
			t.Fatalf("drain left no checkpoint for %s: %v", id, err)
		}
		ck, err := pipeline.ReadCheckpoint(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("checkpoint for %s does not load: %v", id, err)
		}
		if ck.BudgetSpent <= 0 {
			t.Errorf("checkpoint for %s spent = %v, want > 0", id, ck.BudgetSpent)
		}
	}
}
