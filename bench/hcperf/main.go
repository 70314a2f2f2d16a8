// Command hcperf is the repository's benchmark. It runs one workload
// against the labeling system, measures it from the outside, checks
// that the outputs are correct, and prints every metric by name with
// its unit:
//
//	hcperf -workload fig2 -seed 1 -seconds 25 -trace 0
//
// Workloads: fig2 (experiments.Fig2 at full size), hc-loop (the
// uniform and cost-aware checking loops), serve-ack (closed-loop expert
// answers over HTTP with fsync-before-ack journals) and serve-stream
// (streaming sessions, then crash recovery of their journals). "all"
// runs each of them in its own process.
//
// -trace 0 measures the end-to-end metrics with no instrumentation.
// -trace 1 (or -trace FILE) is the traced run: it measures the layer
// ladder, then runs the workload with spans around every call into a
// layer, reports the per-layer metrics, and writes the spans to FILE
// (default .bench_build/traces/WORKLOAD-seedN.jsonl).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// the run finished and every correctness check passed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one set of inputs the benchmark runs. setup builds
// everything the timed phase needs; it runs several times per run.
type workload struct {
	name  string
	setup func(r *runner) (job, error)
}

// job is a workload after set-up.
type job interface {
	// measure runs the untraced timed phase until the deadline.
	measure(ctx context.Context, deadline time.Time) (*opStats, error)
	// trace runs the workload with spans until the deadline and reports
	// its path metrics.
	trace(ctx context.Context, tr *Tracer, deadline time.Time) error
	close() error
}

// opStats is what an untraced phase measured.
type opStats struct {
	lat    Latency       // one sample per op, failed ops included
	ops    int           // ops completed
	window time.Duration // wall time the ops ran in
	rssMB  float64       // the process's peak resident memory when the ops ended
}

// peakRSS is the process's peak resident memory so far, in MB.
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

var workloads = []workload{
	{"fig2", setupFig2},
	{"hc-loop", setupHCLoop},
	{"serve-ack", setupServeAck},
	{"serve-stream", setupServeStream},
}

// runner carries one workload run's settings and collects its report.
type runner struct {
	workload string
	seed     int64
	seconds  time.Duration
	sz       sizes
	dir      string    // scratch space for journals; removed by the caller
	out      io.Writer // catalogue lines

	rep       report
	units     map[string]string
	problems  []string
	attempted int64
	failed    int64
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRunner(name string, seed int64, seconds time.Duration, sz sizes, dir string, out io.Writer) *runner {
	units := make(map[string]string)
	for _, m := range append(endToEnd, perLayer()...) {
		units[m.name] = m.unit
	}
	return &runner{
		workload: name, seed: seed, seconds: seconds, sz: sz, dir: dir, out: out,
		rep:   report{Metrics: make(map[string]metric)},
		units: units,
	}
}

// put records a declared metric. Values that are not finite (a ratio
// over nothing) are reported as 0.
func (r *runner) put(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("hcperf: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.rep.Metrics[name] = metric{Value: v, Unit: unit}
}

// printf writes one catalogue line, prefixed with the workload.
func (r *runner) printf(format string, args ...any) {
	fmt.Fprintf(r.out, "%s: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// check records a failed correctness check when ok is false.
func (r *runner) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.problems = append(r.problems, msg)
		r.printf("CHECK FAILED: %s", msg)
	}
}

// requests counts requests the workload attempted and how many failed.
func (r *runner) requests(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fig2, hc-loop, serve-ack, serve-stream or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 25, "how long the run measures")
	traceArg := fs.String("trace", "0", "0: untraced run; 1: traced run, spans under .bench_build/traces; FILE: traced run, spans written to FILE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "hcperf: usage: hcperf -workload NAME [-seed N] [-seconds S] [-trace 0|1|FILE]")
		return 2
	}
	traced, tracePath := *traceArg != "0", ""
	switch *traceArg {
	case "0":
	case "1":
		tracePath = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	default:
		tracePath = *traceArg
	}
	if *name == "all" {
		return runAll(args, *traceArg, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "hcperf: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "hcperf:", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "hcperf:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r := newRunner(w.name, *seed, time.Duration(*seconds*float64(time.Second)), full, dir, stdout)
	rep, err := runWorkload(context.Background(), w, r, traced, tracePath)
	if err != nil {
		fmt.Fprintf(stderr, "hcperf: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "hcperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runWorkload sets the workload up setupReps times, runs the untraced
// or the traced phase, shuts the workload down, and returns the report.
func runWorkload(ctx context.Context, w *workload, r *runner, traced bool, tracePath string) (*report, error) {
	start := time.Now()
	var j job
	var setups []float64
	for i := 0; i < r.sz.setupReps; i++ {
		if j != nil {
			if err := j.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if j, err = w.setup(r); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.printf("setup %.4g s median of %d (first began %.3g s after start)", Median(setups), len(setups), time.Since(start).Seconds()-sum(setups))
	var err error
	if traced {
		err = traceJob(ctx, j, r, tracePath)
	} else {
		err = measureJob(ctx, j, r)
		r.put("setup_s", Median(setups))
	}
	if cerr := j.close(); err == nil && cerr != nil {
		err = fmt.Errorf("shutdown: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	want := endToEnd
	if traced {
		want = perLayer()
	}
	for _, m := range want {
		if _, ok := r.rep.Metrics[m.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	if len(r.rep.Metrics) != len(want) {
		return nil, fmt.Errorf("reported %d metrics, want %d", len(r.rep.Metrics), len(want))
	}
	names := make([]string, 0, len(r.rep.Metrics))
	for n := range r.rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.rep.Metrics[n]
		r.printf("%-40s %14.6g %s", n, m.Value, m.Unit)
	}
	r.rep.Correct = len(r.problems) == 0
	r.rep.Attempted = max(r.attempted, 1)
	r.rep.Failed = r.failed
	return &r.rep, nil
}

// measureJob runs the untraced phase and reports the end-to-end
// metrics other than setup_s.
func measureJob(ctx context.Context, j job, r *runner) error {
	st, err := j.measure(ctx, time.Now().Add(r.seconds))
	if err != nil {
		return err
	}
	if st.ops == 0 {
		return errors.New("no operation completed")
	}
	r.put("latency_p50_ms", st.lat.Percentile(50)*1e3)
	r.put("throughput_per_s", float64(st.ops)/st.window.Seconds())
	r.put("max_rss_mb", st.rssMB)
	r.printf("op latency %s", st.lat.Summary())
	r.printf("%d ops in %.3f s", st.ops, st.window.Seconds())
	return nil
}

// traceJob measures the ladder, runs the traced phase, reports the
// per-layer metrics (0 for a layer the workload does not reach), and
// writes the spans to tracePath unless it is empty.
func traceJob(ctx context.Context, j job, r *runner, tracePath string) error {
	if err := runLadder(ctx, r); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	tr := NewTracer()
	if err := j.trace(ctx, tr, time.Now().Add(r.seconds)); err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.put("process.gc_cpu_fraction", ms.GCCPUFraction)
	for _, m := range pathMetrics() {
		if _, ok := r.rep.Metrics[m.name]; !ok {
			r.put(m.name, 0)
		}
	}
	if tracePath == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return err
	}
	if err := tr.WriteFile(tracePath); err != nil {
		return err
	}
	r.printf("%d spans written to %s", len(tr.Spans()), tracePath)
	return nil
}

// runAll runs every workload in a child process of its own, passes its
// output through, and ends with one JSON line whose metrics are keyed
// WORKLOAD/METRIC.
func runAll(args []string, traceArg string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "hcperf:", err)
		return 1
	}
	total := report{Correct: true, Metrics: make(map[string]metric)}
	code := 0
	for _, w := range workloads {
		childArgs := replaceFlag(args, "workload", w.name)
		if traceArg != "0" && traceArg != "1" {
			ext := filepath.Ext(traceArg)
			childArgs = replaceFlag(childArgs, "trace", strings.TrimSuffix(traceArg, ext)+"-"+w.name+ext)
		}
		var out bytes.Buffer
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "hcperf: workload %s: %v\n", w.name, err)
			code = 1
		}
		var rep report
		if err := json.Unmarshal(lastLine(out.Bytes()), &rep); err != nil {
			fmt.Fprintf(stderr, "hcperf: workload %s printed no result\n", w.name)
			total.Correct = false
			code = 1
			continue
		}
		total.Correct = total.Correct && rep.Correct
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		for n, m := range rep.Metrics {
			total.Metrics[w.name+"/"+n] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "hcperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return code
}

// replaceFlag returns args with every -name/--name flag set to value
// (appended when absent).
func replaceFlag(args []string, name, value string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		switch {
		case a == name:
			i++ // the value follows
		case strings.HasPrefix(a, name+"="):
		default:
			out = append(out, args[i])
			continue
		}
	}
	return append(out, "-"+name, value)
}

// lastLine returns the last line of b, ignoring trailing white space.
func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// closedLoop calls op(i) for i = 0, 1, ... until starting another call
// would likely overrun the deadline, judged by the previous call's
// duration. It always makes at least one call.
func closedLoop(ctx context.Context, deadline time.Time, op func(i int) error) error {
	var last time.Duration
	for i := 0; ; i++ {
		if i > 0 && time.Now().Add(last).After(deadline) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		t := time.Now()
		if err := op(i); err != nil {
			return err
		}
		last = time.Since(t)
	}
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// pct is part as a percentage of whole.
func pct(part, whole time.Duration) float64 {
	return 100 * part.Seconds() / whole.Seconds()
}
