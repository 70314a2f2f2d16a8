package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcrowd"
)

func writeDataset(t *testing.T) string {
	t.Helper()
	cfg := hcrowd.DefaultSentiConfig()
	cfg.NumTasks = 6
	ds, err := hcrowd.GenerateSentiLike(2, cfg)
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

func TestRunEndToEnd(t *testing.T) {
	path := writeDataset(t)
	var out bytes.Buffer
	err := run([]string{"-in", path, "-budget", "20", "-trace", "-labels"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"accuracy:", "quality:", "round", "init: EBCC", "selector: Approx"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// 30 label lines (6 tasks × 5 facts).
	labels := 0
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, ",true") || strings.Contains(line, ",false") {
			labels++
		}
	}
	if labels != 30 {
		t.Errorf("label lines = %d, want 30", labels)
	}
}

func TestRunSelectorAndInitFlags(t *testing.T) {
	path := writeDataset(t)
	for _, sel := range []string{"approx", "random", "maxentropy", "opt"} {
		var out bytes.Buffer
		if err := run([]string{"-in", path, "-budget", "4", "-selector", sel}, &out); err != nil {
			t.Errorf("selector %s: %v", sel, err)
		}
	}
	for _, init := range []string{"MV", "DS", "BWA"} {
		var out bytes.Buffer
		if err := run([]string{"-in", path, "-budget", "4", "-init", init}, &out); err != nil {
			t.Errorf("init %s: %v", init, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	path := writeDataset(t)
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "/does/not/exist.json"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-in", path, "-selector", "nope"}, &out); err == nil {
		t.Error("bad selector accepted")
	}
	if err := run([]string{"-in", path, "-init", "nope"}, &out); err == nil {
		t.Error("bad init accepted")
	}
	if err := run([]string{"-in", path, "-k", "0"}, &out); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestRunCheckpointAndResume(t *testing.T) {
	path := writeDataset(t)
	ck := filepath.Join(t.TempDir(), "state.json")
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-budget", "10", "-save-checkpoint", ck}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	out.Reset()
	if err := run([]string{"-in", path, "-budget", "20", "-resume", ck}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "budget spent: 20") {
		t.Errorf("resume output: %q", out.String())
	}
	// Resuming from a missing checkpoint fails cleanly.
	if err := run([]string{"-in", path, "-resume", "/missing.json"}, &out); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// TestRunResumeFlavorMismatch: -resume under the other loop flavor than
// the one that saved the checkpoint fails instead of quietly running the
// other algorithm cold.
func TestRunResumeFlavorMismatch(t *testing.T) {
	path := writeDataset(t)
	for _, tc := range []struct{ save, resume []string }{
		{[]string{"-costaware"}, nil},
		{nil, []string{"-costaware"}},
	} {
		ck := filepath.Join(t.TempDir(), "state.json")
		var out bytes.Buffer
		args := append([]string{"-in", path, "-budget", "10", "-save-checkpoint", ck}, tc.save...)
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		args = append([]string{"-in", path, "-budget", "20", "-resume", ck}, tc.resume...)
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "cost-aware") || !strings.Contains(err.Error(), "uniform") {
			t.Errorf("save %v, resume %v: err = %v, want a flavor mismatch", tc.save, tc.resume, err)
		}
	}
}

func TestRunCostAwareFlag(t *testing.T) {
	path := writeDataset(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-budget", "12", "-costaware"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "accuracy:") {
		t.Errorf("costaware output: %q", out.String())
	}
}
