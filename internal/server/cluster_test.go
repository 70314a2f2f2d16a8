package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hcrowd/internal/aggregate"
	"hcrowd/internal/dataset"
	"hcrowd/internal/journal"
	"hcrowd/internal/pipeline"
)

// uninterruptedRun executes the whole job in one unjournaled session
// and returns its result and final checkpoint bytes — the reference
// every handoff scenario must match byte for byte.
func uninterruptedRun(t *testing.T, ctx context.Context, ds *dataset.Dataset, sc SessionConfig) (*pipeline.Result, []byte) {
	t.Helper()
	agg, err := aggregate.ByName("EBCC", sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	couple, err := ds.EstimateCoupling()
	if err != nil {
		t.Fatal(err)
	}
	cost, err := CostModelByName(sc.CostModel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.Config{K: sc.K, Budget: sc.Budget, Init: agg, PriorCoupling: couple, Cost: cost}
	ref, err := NewSession(ctx, ds, cfg, SessionOptions{CostAware: sc.CostAware})
	if err != nil {
		t.Fatal(err)
	}
	if err := driveFlip(ref, ds); err != nil {
		t.Fatalf("reference: %v", err)
	}
	res, err := ref.Wait(ctx)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	ck := checkpointBytes(t, ref.Checkpoint())
	ref.Close()
	return res, ck
}

// handoffRoundTrip is the rebalance scenario both determinism tests
// share: start a journaled session on replica A, stop it mid-panel
// after 7 accepted answers, move the journal image to replica B's
// manager via AcceptHandoff, finish the job there, and demand the
// result is byte-identical to a run that never moved.
//
// kill=false is the orderly protocol — Manager.Handoff quiesces and
// fsyncs, Retire removes A's copy after B's ack. kill=true is the
// surviving-owner path: A is killed without a drain (Close, exactly the
// crash-test idiom), and B is handed whatever bytes A's journal had
// acknowledged, trimmed to the clean prefix the way an operator
// salvaging a dead replica's journal dir would (AcceptHandoff itself
// refuses torn images — in-flight truncation must not pass silently).
func handoffRoundTrip(t *testing.T, kill bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	ds := sizedDataset(t, 8, 91)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	sc := SessionConfig{K: 1, Budget: 14, Seed: 9}
	refRes, refCk := uninterruptedRun(t, ctx, ds, sc)

	dirA, dirB := t.TempDir(), t.TempDir()
	mA := NewManager(ManagerOptions{JournalDir: dirA, CompactEvery: 3})
	id, s1, err := mA.CreateFromRequest(CreateSessionRequest{
		Name: "moving-job", Dataset: dsBuf.Bytes(), Config: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driveFlipN(s1, ds, 7); err != nil {
		t.Fatalf("pre-handoff drive: %v", err)
	}

	var image []byte
	if kill {
		s1.Close()
		raw, err := os.ReadFile(filepath.Join(dirA, id+".journal"))
		if err != nil {
			t.Fatal(err)
		}
		_, good, derr := journal.Decode(raw)
		if derr != nil {
			t.Fatalf("decode killed journal: %v", derr)
		}
		image = raw[:good]
	} else {
		if image, err = mA.Handoff(ctx, id); err != nil {
			t.Fatalf("handoff: %v", err)
		}
	}

	mB := NewManager(ManagerOptions{JournalDir: dirB, CompactEvery: 3})
	if err := mB.AcceptHandoff(id, image); err != nil {
		t.Fatalf("accept handoff: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dirB, id+".journal")); err != nil {
		t.Fatalf("accepted journal not on B's disk: %v", err)
	}
	if !kill {
		if err := mA.Retire(id); err != nil {
			t.Fatalf("retire: %v", err)
		}
		if _, ok := mA.Get(id); ok {
			t.Fatal("retired session still registered on the source")
		}
		if _, err := os.Stat(filepath.Join(dirA, id+".journal")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("source journal survives retire: %v", err)
		}
	}

	s2, ok := mB.Get(id)
	if !ok {
		t.Fatal("accepted session not registered on the target")
	}
	if err := driveFlip(s2, ds); err != nil {
		t.Fatalf("post-handoff drive: %v", err)
	}
	res, err := s2.Wait(ctx)
	if err != nil {
		t.Fatalf("post-handoff run: %v", err)
	}

	gotLabels, _ := json.Marshal(res.Labels)
	wantLabels, _ := json.Marshal(refRes.Labels)
	if !bytes.Equal(gotLabels, wantLabels) {
		t.Errorf("handed-off labels diverge from uninterrupted run\n got %s\nwant %s", gotLabels, wantLabels)
	}
	if res.BudgetSpent != refRes.BudgetSpent {
		t.Errorf("handed-off spend %v, uninterrupted %v", res.BudgetSpent, refRes.BudgetSpent)
	}
	if res.Quality != refRes.Quality {
		t.Errorf("handed-off quality %v, uninterrupted %v", res.Quality, refRes.Quality)
	}
	if gotCk := checkpointBytes(t, s2.Checkpoint()); !bytes.Equal(gotCk, refCk) {
		t.Errorf("handed-off final checkpoint diverges from uninterrupted run\n got %s\nwant %s", gotCk, refCk)
	}
}

// TestHandoffDeterministicGivenSeed proves the rebalance tentpole for
// the orderly protocol: quiesce → stream → recover on the new owner →
// retire, with byte-identical labels and final checkpoint. Runs in the
// -count=2 determinism suite.
func TestHandoffDeterministicGivenSeed(t *testing.T) {
	handoffRoundTrip(t, false)
}

// TestHandoffKillRecoverDeterministicGivenSeed is the kill-one-replica
// claim: the source dies without draining, the surviving owner recovers
// from the journal bytes alone, and the finished job is still
// byte-identical to a run that was never interrupted.
func TestHandoffKillRecoverDeterministicGivenSeed(t *testing.T) {
	handoffRoundTrip(t, true)
}

// startClusterPair boots two real replicas — separate managers,
// journal dirs and listeners — whose routing layers know each other,
// and returns the managers, clusters, and base URLs in listener order.
func startClusterPair(t *testing.T, proxy bool) ([2]*Manager, [2]*Cluster, [2]string) {
	t.Helper()
	var lns [2]net.Listener
	members := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		members[i] = ln.Addr().String()
	}
	var mgrs [2]*Manager
	var clus [2]*Cluster
	var urls [2]string
	for i := range lns {
		mgrs[i] = NewManager(ManagerOptions{JournalDir: t.TempDir()})
		clu, err := NewCluster(mgrs[i], ClusterOptions{Self: members[i], Peers: members, Proxy: proxy})
		if err != nil {
			t.Fatal(err)
		}
		clus[i] = clu
		srv := &http.Server{Handler: clu.Handler()}
		go srv.Serve(lns[i]) //hclint:ignore errcheck-lite test server; Serve returns when the cleanup closes it
		t.Cleanup(func() { srv.Close() })
		urls[i] = "http://" + members[i]
	}
	return mgrs, clus, urls
}

// nameOwnedBy finds a session name the ring assigns to owner.
func nameOwnedBy(t *testing.T, c *Cluster, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("s-%d", i)
		if c.Ring().Owner(name) == owner {
			return name
		}
	}
	t.Fatalf("no candidate name owned by %s", owner)
	return ""
}

// noFollow is an http.Client that surfaces redirects instead of
// following them, so tests can inspect the 307 itself.
func noFollow() *http.Client {
	return &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
}

// TestClusterRedirectsToOwner pins the redirect contract: a request
// addressing a session the ring assigns elsewhere answers 307 with the
// owner's URL in Location and X-HC-Owner, and bumps
// cluster_redirects_total on the replica that bounced it.
func TestClusterRedirectsToOwner(t *testing.T) {
	mgrs, clus, urls := startClusterPair(t, false)
	name := nameOwnedBy(t, clus[0], clus[1].Self())

	resp, err := noFollow().Get(urls[0] + "/v1/sessions/" + name + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("status = %d, want 307", resp.StatusCode)
	}
	if got, want := resp.Header.Get("X-HC-Owner"), clus[1].Self(); got != want {
		t.Errorf("X-HC-Owner = %q, want %q", got, want)
	}
	wantLoc := urls[1] + "/v1/sessions/" + name + "/status"
	if got := resp.Header.Get("Location"); got != wantLoc {
		t.Errorf("Location = %q, want %q", got, wantLoc)
	}
	if v := mgrs[0].metrics.clusterRedirects.Value(); v < 1 {
		t.Errorf("cluster_redirects_total = %v, want >= 1", v)
	}
}

// TestClusterCreateRoutedByName drives a create through the wrong
// replica with a stock redirect-following client: the 307 re-sends the
// payload to the ring owner, where the session materializes. The
// replica that owns the name serves its own creates locally with
// X-HC-Owner naming itself.
func TestClusterCreateRoutedByName(t *testing.T) {
	mgrs, clus, urls := startClusterPair(t, false)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	ds := sizedDataset(t, 6, 41)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	name := nameOwnedBy(t, clus[0], clus[1].Self())
	mc := NewManagerClient(urls[0]) // deliberately the non-owner
	info, err := mc.Create(ctx, CreateSessionRequest{
		Name: name, Dataset: dsBuf.Bytes(), Config: SessionConfig{K: 1, Budget: 6, Seed: 2},
	})
	if err != nil {
		t.Fatalf("create via non-owner: %v", err)
	}
	if info.ID != name {
		t.Fatalf("created id %q, want %q", info.ID, name)
	}
	if _, ok := mgrs[0].Get(name); ok {
		t.Error("session created on the bouncing replica, want owner only")
	}
	s, ok := mgrs[1].Get(name)
	if !ok {
		t.Fatal("session missing on its ring owner")
	}
	defer s.Close()
	if v := mgrs[0].metrics.clusterRedirects.Value(); v < 1 {
		t.Errorf("cluster_redirects_total = %v, want >= 1", v)
	}
}

// TestClusterProxyMode covers the redirect-blind escape hatch: with
// Proxy on, the non-owner forwards the request itself, the client sees
// one 2xx response carrying X-HC-Owner, and cluster_proxied_total moves
// instead of cluster_redirects_total.
func TestClusterProxyMode(t *testing.T) {
	mgrs, clus, urls := startClusterPair(t, true)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	ds := sizedDataset(t, 6, 43)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	name := nameOwnedBy(t, clus[0], clus[1].Self())
	mc := NewManagerClient(urls[0])
	mc.HTTPClient = noFollow() // a proxied create must not need redirect support
	if _, err := mc.Create(ctx, CreateSessionRequest{
		Name: name, Dataset: dsBuf.Bytes(), Config: SessionConfig{K: 1, Budget: 6, Seed: 2},
	}); err != nil {
		t.Fatalf("create via proxying non-owner: %v", err)
	}
	s, ok := mgrs[1].Get(name)
	if !ok {
		t.Fatal("session missing on its ring owner")
	}
	defer s.Close()
	if v := mgrs[0].metrics.clusterProxied.Value(); v < 1 {
		t.Errorf("cluster_proxied_total = %v, want >= 1", v)
	}
	if v := mgrs[0].metrics.clusterRedirects.Value(); v != 0 {
		t.Errorf("cluster_redirects_total = %v, want 0 in proxy mode", v)
	}

	resp, err := noFollow().Get(urls[0] + "/v1/sessions/" + name + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied status = %d, want 200", resp.StatusCode)
	}
	if got, want := resp.Header.Get("X-HC-Owner"), clus[1].Self(); got != want {
		t.Errorf("X-HC-Owner = %q, want %q", got, want)
	}
}

// TestClusterInfoEndpoint pins GET /v1/cluster: each replica reports
// itself, the full sorted membership, and the routing mode.
func TestClusterInfoEndpoint(t *testing.T) {
	_, clus, urls := startClusterPair(t, false)
	for i := range urls {
		resp, err := http.Get(urls[i] + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		var info struct {
			Self    string   `json:"self"`
			Members []string `json:"members"`
			VNodes  int      `json:"vnodes"`
			Proxy   bool     `json:"proxy"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if info.Self != clus[i].Self() {
			t.Errorf("replica %d self = %q, want %q", i, info.Self, clus[i].Self())
		}
		if len(info.Members) != 2 || info.Proxy {
			t.Errorf("replica %d info = %+v, want 2 members, proxy off", i, info)
		}
		if info.VNodes != clus[i].Ring().VNodes() {
			t.Errorf("replica %d vnodes = %d, want %d", i, info.VNodes, clus[i].Ring().VNodes())
		}
	}
}

// TestClusterHandoffEndpoint is the tentpole protocol over real HTTP:
// a session living on A moves to B through POST /v1/cluster/handoff,
// after which B serves it locally (presence beats the ring) and A's
// journal copy is gone. The session is mid-run when it moves and
// finishes on B.
func TestClusterHandoffEndpoint(t *testing.T) {
	mgrs, clus, urls := startClusterPair(t, false)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ds := sizedDataset(t, 8, 47)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	name := nameOwnedBy(t, clus[0], clus[0].Self())
	mc := NewManagerClient(urls[0])
	if _, err := mc.Create(ctx, CreateSessionRequest{
		Name: name, Dataset: dsBuf.Bytes(), Config: SessionConfig{K: 1, Budget: 14, Seed: 5},
	}); err != nil {
		t.Fatal(err)
	}
	s1, _ := mgrs[0].Get(name)
	if _, err := driveFlipN(s1, ds, 7); err != nil {
		t.Fatal(err)
	}

	// Moving it "home" is a 409: the handoff endpoint refuses self-moves.
	resp, err := http.Post(urls[0]+"/v1/cluster/handoff/"+name+"?target="+clus[0].Self(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("self-handoff status = %d, want 409", resp.StatusCode)
	}

	resp, err = http.Post(urls[0]+"/v1/cluster/handoff/"+name+"?target="+clus[1].Self(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var moved struct {
		ID     string `json:"id"`
		Target string `json:"target"`
		Bytes  int    `json:"bytes"`
	}
	err = json.NewDecoder(resp.Body).Decode(&moved)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff status = %d (%+v)", resp.StatusCode, moved)
	}
	if err != nil || moved.ID != name || moved.Target != clus[1].Self() || moved.Bytes == 0 {
		t.Fatalf("handoff response = %+v, %v", moved, err)
	}
	if _, ok := mgrs[0].Get(name); ok {
		t.Error("session still registered on the source after handoff")
	}
	if v := mgrs[0].metrics.clusterHandoffs.Value(); v != 1 {
		t.Errorf("cluster_handoffs_total = %v, want 1", v)
	}
	if v := mgrs[1].metrics.clusterAccepts.Value(); v != 1 {
		t.Errorf("cluster_accepts_total = %v, want 1", v)
	}

	// B serves the moved session locally even though the ring still says
	// A owns the name — presence wins, no bounce-back loop.
	resp, err = noFollow().Get(urls[1] + "/v1/sessions/" + name + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status on new owner = %d, want 200", resp.StatusCode)
	}
	if got, want := resp.Header.Get("X-HC-Owner"), clus[1].Self(); got != want {
		t.Errorf("X-HC-Owner = %q, want %q", got, want)
	}

	s2, ok := mgrs[1].Get(name)
	if !ok {
		t.Fatal("session missing on the target")
	}
	if err := driveFlip(s2, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Wait(ctx); err != nil {
		t.Fatalf("finish on new owner: %v", err)
	}
}

// TestClusterAcceptRejectsBadImages pins the accept endpoint's refusal
// modes: bytes that are not a journal, a clean image addressed to the
// wrong session ID, and a torn (truncated) image are all 422 — and none
// of them leave a session or a journal file behind.
func TestClusterAcceptRejectsBadImages(t *testing.T) {
	mgrs, clus, urls := startClusterPair(t, false)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	post := func(id string, body []byte) int {
		t.Helper()
		resp, err := http.Post(urls[1]+"/v1/cluster/accept/"+id, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("garbage-job", []byte("definitely not a journal")); code != http.StatusUnprocessableEntity {
		t.Errorf("garbage image status = %d, want 422", code)
	}

	// A real image, produced by the orderly source half.
	ds := sizedDataset(t, 6, 53)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	name := nameOwnedBy(t, clus[0], clus[0].Self())
	id, s1, err := mgrs[0].CreateFromRequest(CreateSessionRequest{
		Name: name, Dataset: dsBuf.Bytes(), Config: SessionConfig{K: 1, Budget: 6, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driveFlipN(s1, ds, 3); err != nil {
		t.Fatal(err)
	}
	image, err := mgrs[0].Handoff(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	if code := post("not-"+name, image); code != http.StatusUnprocessableEntity {
		t.Errorf("wrong-id image status = %d, want 422", code)
	}
	if code := post(name, image[:len(image)-3]); code != http.StatusUnprocessableEntity {
		t.Errorf("torn image status = %d, want 422", code)
	}
	if _, ok := mgrs[1].Get(name); ok {
		t.Error("rejected image still registered a session")
	}

	// The intact image is accepted, and a second copy of a now-present
	// session is a 409, not a silent overwrite.
	if code := post(name, image); code != http.StatusOK {
		t.Errorf("clean image status = %d, want 200", code)
	}
	if code := post(name, image); code != http.StatusConflict {
		t.Errorf("duplicate image status = %d, want 409", code)
	}
	if s2, ok := mgrs[1].Get(name); ok {
		s2.Close()
	} else {
		t.Error("accepted session missing")
	}
}

// TestClientFollows307PreservingBody pins the client behavior replica
// routing leans on: a create bounced with 307 is re-sent — method and
// full JSON payload intact — to the redirect target.
func TestClientFollows307PreservingBody(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	mgr := NewManager(ManagerOptions{})
	owner := httptest.NewServer(mgr.Handler())
	defer owner.Close()
	bouncer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, owner.URL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	defer bouncer.Close()

	ds := sizedDataset(t, 6, 59)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	mc := NewManagerClient(bouncer.URL)
	info, err := mc.Create(ctx, CreateSessionRequest{
		Name: "bounced", Dataset: dsBuf.Bytes(), Config: SessionConfig{K: 1, Budget: 6, Seed: 2},
	})
	if err != nil {
		t.Fatalf("create through 307: %v", err)
	}
	if info.ID != "bounced" {
		t.Fatalf("created id %q, want bounced", info.ID)
	}
	s, ok := mgr.Get("bounced")
	if !ok {
		t.Fatal("session missing on redirect target")
	}
	s.Close()
}

// TestEvictionRetiresJournal is the regression test for the eviction
// leak: before the fix, evicting a finished session left its journal on
// disk, so the next restart resurrected sessions the retention policy
// had already discarded (and the journal dir grew without bound).
func TestEvictionRetiresJournal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := t.TempDir()
	m1 := NewManager(ManagerOptions{JournalDir: dir, Retention: 1})

	ds := sizedDataset(t, 6, 61)
	var dsBuf bytes.Buffer
	if err := ds.Write(&dsBuf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"old-job", "new-job"} {
		_, s, err := m1.CreateFromRequest(CreateSessionRequest{
			Name: name, Dataset: dsBuf.Bytes(), Config: SessionConfig{K: 1, Budget: 8, Seed: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := driveFlip(s, ds); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// The watcher evicts old-job once new-job finishes; both the registry
	// entry and the journal file must go.
	deadline := time.After(10 * time.Second)
	for {
		_, stillThere := m1.Get("old-job")
		_, statErr := os.Stat(filepath.Join(dir, "old-job.journal"))
		if !stillThere && errors.Is(statErr, os.ErrNotExist) {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("evicted session not fully retired: registered=%v journal stat=%v", stillThere, statErr)
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Restart over the same dir: the evicted session must stay gone.
	m2 := NewManager(ManagerOptions{JournalDir: dir, Retention: 1})
	ids, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "new-job" {
		t.Fatalf("recovered %v after eviction, want [new-job]", ids)
	}
}

// TestWriteCheckpointFileAtomic pins the checkpoint persistence shape:
// the write lands under the final name only (no temp file left behind)
// and reads back byte-identical.
func TestWriteCheckpointFileAtomic(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ds := sizedDataset(t, 6, 67)
	_, want := uninterruptedRun(t, ctx, ds, SessionConfig{K: 1, Budget: 8, Seed: 6})

	dir := t.TempDir()
	path := filepath.Join(dir, "final.ckpt.json")
	ck, err := pipeline.ReadCheckpoint(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpointFile(path, ck); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "final.ckpt.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("checkpoint dir = %v, want exactly [final.ckpt.json]", names)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("checkpoint file diverges from in-memory checkpoint\n got %s\nwant %s", got, want)
	}
}
