package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hcrowd"
	"hcrowd/internal/pipeline"
	"hcrowd/internal/server"
)

// startServer builds a dataset file plus a live hcserve-equivalent.
func startServer(t *testing.T, budget float64) (url, dsPath string, ds *hcrowd.Dataset) {
	t.Helper()
	cfg := hcrowd.DefaultSentiConfig()
	cfg.NumTasks = 5
	ds, err := hcrowd.GenerateSentiLike(9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dsPath = filepath.Join(t.TempDir(), "ds.json")
	f, err := os.Create(dsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// hcserve serves its "default" session's routes at the root.
	mgr := server.NewManager(server.ManagerOptions{})
	_, sess, err := mgr.Create("default", ds, pipeline.Config{K: 1, Budget: budget}, server.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	root, _ := mgr.SessionHandler("default")
	srv := httptest.NewServer(root)
	t.Cleanup(srv.Close)
	return srv.URL, dsPath, ds
}

func TestRunSimulatedExperts(t *testing.T) {
	url, dsPath, ds := startServer(t, 8)
	ce, _ := ds.Split()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	done := make(chan error, len(ce))
	for _, w := range ce {
		go func(id string) {
			var out bytes.Buffer
			done <- run(ctx, []string{
				"-server", url, "-worker", id, "-sim", dsPath, "-poll", "5ms",
			}, strings.NewReader(""), &out)
		}(w.ID)
	}
	for range ce {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunInteractive(t *testing.T) {
	url, _, ds := startServer(t, 2) // one k=1 round, |CE|=2
	ce, _ := ds.Split()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	done := make(chan error, len(ce))
	for _, w := range ce {
		go func(id string) {
			var out bytes.Buffer
			// Feed enough y/n lines for the single round.
			in := strings.NewReader(strings.Repeat("y\n", 64))
			done <- run(ctx, []string{
				"-server", url, "-worker", id, "-poll", "5ms",
			}, in, &out)
		}(w.ID)
	}
	for range ce {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	url, dsPath, _ := startServer(t, 4)
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, []string{"-server", url}, strings.NewReader(""), &out); err == nil {
		t.Error("missing -worker accepted")
	}
	if err := run(ctx, []string{"-server", url, "-worker", "ghost"}, strings.NewReader(""), &out); err == nil {
		t.Error("non-expert worker accepted")
	}
	if err := run(ctx, []string{"-server", url, "-worker", "e0", "-sim", "/missing.json"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing sim dataset accepted")
	}
	if err := run(ctx, []string{"-server", "http://127.0.0.1:1", "-worker", "e0", "-sim", dsPath}, strings.NewReader(""), &out); err == nil {
		t.Error("dead server accepted")
	}
}
