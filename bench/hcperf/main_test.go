package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tiny shrinks every workload so that the smoke test runs each one,
// untraced and traced, with all of its correctness checks, in about a
// second.
var tiny = sizes{
	setupReps: 2,

	fig2Quick: true,
	fig2Panel: 2,

	hcTasks:  30,
	hcBudget: 60,
	hcK:      2,
	hcPanel:  2,

	ackSessions: 4,
	ackConfigs:  2,
	ackTasks:    8,
	ackBudget:   12,

	streamSessions:   4,
	streamConfigs:    2,
	streamBaseTasks:  8,
	streamFragments:  3,
	streamAdmitEvery: 2,
	streamBudget:     10,
	streamWindow:     2,
	streamLoadShare:  0.7,
	streamRecoveries: 2,

	ladderTasks:   20,
	ladderExtra:   20,
	ladderAggReps: 1,
	ladderRounds:  5,
	ladderProbes:  20,
}

func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			want := endToEnd
			if traced {
				name, want = w.name+"/traced", perLayer()
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				dir := t.TempDir()
				r := newRunner(w.name, 1, 300*time.Millisecond, tiny, dir, &out)
				tracePath := ""
				if traced {
					tracePath = filepath.Join(dir, "trace.jsonl")
				}
				rep, err := runWorkload(context.Background(), w, r, traced, tracePath)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out.String())
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				if traced {
					if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
						t.Errorf("trace file %s: %v", tracePath, err)
					}
				}
			})
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the benchmark's declaration at
// the repository root in step with the metrics the program reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []declared, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, b.Workloads[i].Name, w.name)
		}
	}
}

func TestReplaceFlag(t *testing.T) {
	got := replaceFlag([]string{"--workload", "all", "-seed=3", "--trace", "1"}, "workload", "fig2")
	want := []string{"-seed=3", "--trace", "1", "-workload", "fig2"}
	if len(got) != len(want) {
		t.Fatalf("replaceFlag = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replaceFlag = %q, want %q", got, want)
		}
	}
}
