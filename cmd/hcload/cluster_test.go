package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hcrowd/internal/cluster"
	"hcrowd/internal/dataset"
	"hcrowd/internal/journal"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/rngutil"
	"hcrowd/internal/server"
)

// freeAddrs reserves n distinct loopback addresses by binding ephemeral
// ports and releasing them just before the replicas start. Replica mode
// needs the address list up front (-peers is static membership), so the
// usual listen-on-:0 trick does not work here.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// startReplica launches one hcserve replica and returns its process
// handle (so the test can SIGKILL it) once the startup line confirms it
// is listening.
func startReplica(t *testing.T, bin, self, peers, jdir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", self, "-self", self, "-peers", peers, "-journal-dir", jdir)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		}
	})
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "listening on ") {
				close(ready)
				break
			}
		}
	}()
	select {
	case <-ready:
		return cmd
	case <-time.After(20 * time.Second):
		t.Fatalf("replica %s never printed its address; stderr:\n%s", self, errBuf.String())
		return nil
	}
}

// nameOwnedBy finds a session name the ring assigns to owner.
func nameOwnedBy(t *testing.T, ring *cluster.Ring, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("move-%d", i)
		if ring.Owner(name) == owner {
			return name
		}
	}
	t.Fatalf("no candidate name owned by %s", owner)
	return ""
}

// driveHTTPFlip answers a session's queries over HTTP with the
// index-only flip policy, one expert at a time in Experts() order — the
// same schedule the in-process reference run uses. n > 0 stops after n
// accepted answers (the crash point); n <= 0 drives to completion.
func driveHTTPFlip(ctx context.Context, base, id string, n int) (int, error) {
	cl := server.NewManagerClient(base).Session(id)
	experts, err := cl.Experts(ctx)
	if err != nil {
		return 0, err
	}
	answered := 0
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := cl.Status(ctx)
		if err != nil {
			return answered, err
		}
		if st.Done || (n > 0 && answered >= n) {
			return answered, nil
		}
		if time.Now().After(deadline) {
			return answered, fmt.Errorf("session %s stalled after %d answers", id, answered)
		}
		progressed := false
		for _, w := range experts {
			q, ok, err := cl.Queries(ctx, w)
			if err != nil {
				return answered, err
			}
			if !ok {
				continue
			}
			if err := cl.Answer(ctx, q.Round, w, flipPolicy(w, q.Facts)); err != nil {
				return answered, err
			}
			answered++
			progressed = true
			if n > 0 && answered >= n {
				return answered, nil
			}
		}
		if !progressed {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// driveLocalFlip is the in-process reference driver: same flip policy,
// same expert order, no network.
func driveLocalFlip(s *server.Session) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if s.Status().Done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("reference session stalled")
		}
		progressed := false
		for _, id := range s.Experts() {
			round, facts, ok := s.Queries(id)
			if !ok {
				continue
			}
			if err := s.Answer(round, id, flipPolicy(id, facts)); err != nil {
				return err
			}
			progressed = true
		}
		if !progressed {
			time.Sleep(time.Millisecond)
		}
	}
}

// scrapeCounter reads one counter from a replica's /v1/metrics snapshot.
func scrapeCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]struct {
		Value *float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	m, ok := snap[name]
	if !ok || m.Value == nil {
		t.Fatalf("metric %s missing from %s/v1/metrics", name, base)
	}
	return *m.Value
}

// checkpointJSON serializes a checkpoint for byte comparison.
func checkpointJSON(t *testing.T, ck *pipeline.Checkpoint) []byte {
	t.Helper()
	if ck == nil {
		t.Fatal("nil checkpoint")
	}
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunClusterSmoke is `make cluster-smoke`: two real hcserve
// replicas forming a ring, exercised end to end.
//
// Phase 1 sprays hcload's streaming sessions across both base URLs —
// misdirected creates 307 to their ring owner and the stock client
// follows, so every session finishes no matter which replica it hit.
//
// Phase 2 is the kill-one-replica claim over real processes: a
// deterministic non-streaming session is created on its owner, driven
// mid-panel over HTTP, the owner is SIGKILLed, the journal is salvaged
// from its dir (trimmed to the clean prefix, exactly what an operator
// does) and posted to the survivor's accept endpoint, and the job
// finishes there — with labels and final checkpoint byte-identical to
// an uninterrupted in-process run, and cluster_redirects_total > 0 on
// the survivor.
func TestRunClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end cluster smoke")
	}
	bin := buildServe(t)
	addrs := freeAddrs(t, 2)
	peers := strings.Join(addrs, ",")
	jdirs := []string{t.TempDir(), t.TempDir()}
	cmds := make([]*exec.Cmd, 2)
	bases := make([]string, 2)
	for i := range addrs {
		cmds[i] = startReplica(t, bin, addrs[i], peers, jdirs[i])
		bases[i] = "http://" + addrs[i]
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	// Phase 1: streaming load sprayed across the replica list.
	var out bytes.Buffer
	if err := run(ctx, []string{
		"-addr", strings.Join(bases, ","),
		"-sessions", "4",
		"-tasks", "12",
		"-streamed", "4",
		"-rate", "50",
		"-seed", "33",
	}, &out); err != nil {
		t.Fatalf("hcload against the cluster: %v\n%s", err, out.String())
	}
	t.Logf("hcload output:\n%s", out.String())
	if !strings.Contains(out.String(), "4/4 sessions done") {
		t.Error("summary line does not report 4/4 sessions done")
	}

	// The same ring the replicas built (same membership, default vnodes).
	ring, err := cluster.New(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	survivor, victim := 0, 1

	// Phase 2: a deterministic closed-set job owned by the victim.
	cfg := dataset.DefaultSentiConfig()
	cfg.NumTasks = 8
	ds, err := dataset.SentiLike(rngutil.New(91), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	sc := server.SessionConfig{K: 1, Budget: 14, Seed: 9}

	// Reference: the identical job, in-process and uninterrupted.
	refMgr := server.NewManager(server.ManagerOptions{})
	_, ref, err := refMgr.CreateFromRequest(server.CreateSessionRequest{
		Name: "ref", Dataset: dsBuf.Bytes(), Config: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := driveLocalFlip(ref); err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	refLabels, _ := json.Marshal(refRes.Labels)
	refCk := checkpointJSON(t, ref.Checkpoint())

	name := nameOwnedBy(t, ring, addrs[victim])
	// Create through the survivor: the 307 to the owner is exactly the
	// routing layer phase 2 depends on (and pins redirects > 0 there).
	mc := server.NewManagerClient(bases[survivor])
	if _, err := mc.Create(ctx, server.CreateSessionRequest{
		Name: name, Dataset: dsBuf.Bytes(), Config: sc,
	}); err != nil {
		t.Fatalf("create %s via survivor: %v", name, err)
	}
	if _, err := driveHTTPFlip(ctx, bases[victim], name, 7); err != nil {
		t.Fatalf("pre-kill drive: %v", err)
	}

	// Kill the owner. No drain, no warning — only its journal survives.
	if err := cmds[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[victim].Wait() //nolint:errcheck

	raw, err := os.ReadFile(filepath.Join(jdirs[victim], name+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	_, good, err := journal.Decode(raw)
	if err != nil {
		t.Fatalf("decode dead replica's journal: %v", err)
	}
	resp, err := http.Post(bases[survivor]+"/v1/cluster/accept/"+name,
		"application/octet-stream", bytes.NewReader(raw[:good]))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("accept on survivor = %d: %s", resp.StatusCode, body)
	}

	if _, err := driveHTTPFlip(ctx, bases[survivor], name, 0); err != nil {
		t.Fatalf("post-kill drive on survivor: %v", err)
	}
	cl := server.NewManagerClient(bases[survivor]).Session(name)
	labels, err := cl.Labels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotLabels, _ := json.Marshal(labels)
	if !bytes.Equal(gotLabels, refLabels) {
		t.Errorf("labels after kill+handoff diverge\n got %s\nwant %s", gotLabels, refLabels)
	}
	ck, ok, err := cl.Checkpoint(ctx)
	if err != nil || !ok {
		t.Fatalf("survivor checkpoint: ok=%v err=%v", ok, err)
	}
	if gotCk := checkpointJSON(t, ck); !bytes.Equal(gotCk, refCk) {
		t.Errorf("final checkpoint after kill+handoff diverges\n got %s\nwant %s", gotCk, refCk)
	}
	if v := scrapeCounter(t, bases[survivor], "cluster_redirects_total"); v < 1 {
		t.Errorf("survivor cluster_redirects_total = %v, want >= 1", v)
	}
}
