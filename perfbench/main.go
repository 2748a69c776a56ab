// Command perfbench is the repository's benchmark. One run measures one
// workload for a given seed and prints every metric by name with its
// unit, then a final JSON line:
//
//	{"correct":true,"attempted":28,"failed":0,"metrics":{...}}
//
// Workloads:
//
//	grid-gtx780     every policy x {conference, sponza} x bounces {1,3} on
//	                the gtx780 device, through the cell scheduler at par 2
//	drs-modern-big  drs then aila on the 128-SMX modern-big device
//	drsd-mix        an in-process drsd driven by 2 closed-loop clients
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics: the run
// alternates untraced and traced rounds and records spans around every
// call into the program. NOTES.md maps each layer metric to the
// end-to-end metric it should move.
//
// Build and run through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload drsd-mix --seed 3 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow build does not move it.
const setupRepeats = 3

// workload is one benchmark workload.
type workload interface {
	// setup builds everything the timed phase needs, replacing the
	// state of any earlier call. It is timed as setup_s.
	setup(ctx context.Context, tr *tracer) error
	// prepare computes the references the correctness gate compares
	// against. It is neither in setup_s nor in the timed phase.
	prepare()
	// round runs one fixed unit of timed work and checks its outputs.
	// A traced round (tr.on) also records spans and per-layer counts.
	round(ctx context.Context, tr *tracer) (roundResult, error)
	// layers adds the per-layer metrics of the traced rounds.
	layers(ctx context.Context, tr *tracer, m *metricSet) error
	// report prints workload-specific lines (cell digests).
	report(w io.Writer)
	close() error
}

// roundResult is what one round measured.
type roundResult struct {
	wall      float64   // host seconds of the work, checks excluded
	alloc     float64   // heap bytes allocated by the work
	jobs      []float64 // host seconds of each job the round ran
	simInstrs int64     // simulated warp instructions executed
	attempted int
	failed    int
}

// measure times work and the heap bytes it allocates.
func measure(work func() error) (wall, alloc float64, err error) {
	a0 := heapAllocs()
	t0 := time.Now()
	err = work()
	wall = time.Since(t0).Seconds()
	return wall, float64(heapAllocs() - a0), err
}

func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// metricSet is an ordered list of named metrics.
type metricSet struct {
	names []string
	vals  map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) add(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = make(map[string]metricValue)
	}
	if _, dup := m.vals[name]; !dup {
		m.names = append(m.names, name)
	}
	m.vals[name] = metricValue{Value: v, Unit: unit}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var secs, traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&secs, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for scratch stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.seconds, o.trace = float64(secs), traceFlag == 1
	if secs < 1 || (traceFlag != 0 && traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	mk, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q; valid: %s\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	bw := bufio.NewWriter(stdout)
	defer bw.Flush()
	res, err := bench(context.Background(), o, mk(o.seed, scratch), bw)
	if err != nil {
		bw.Flush()
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(bw, "%s\n", line)
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench runs one workload: set-up, references, the timed phase, and in
// a traced run the per-layer probes.
func bench(ctx context.Context, o options, w workload, out io.Writer) (res result, err error) {
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	runID := fmt.Sprintf("%s-seed%d-trace%t", o.workload, o.seed, o.trace)
	off := newTracer(false, runID)
	tr := newTracer(o.trace, runID)
	fmt.Fprintf(out, "run %s\n", runID)
	fmt.Fprintf(out, "host %s\n", hostStamp())

	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := w.setup(ctx, tr); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	w.prepare()

	// The timed phase: whole rounds until the time is up. A traced run
	// pairs every untraced round with a traced one.
	var plain, traced []roundResult
	start := time.Now()
	for len(plain) == 0 || time.Since(start).Seconds() < o.seconds {
		r, err := w.round(ctx, off)
		if err != nil {
			return res, err
		}
		plain = append(plain, r)
		if o.trace {
			r, err := w.round(ctx, tr)
			if err != nil {
				return res, err
			}
			traced = append(traced, r)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	e2e, err := complete(endToEnd(setups, plain, float64(ms.HeapAlloc)), endToEndDefs())
	if err != nil {
		return res, err
	}
	for _, r := range append(append([]roundResult(nil), plain...), traced...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	report := e2e
	if o.trace {
		var layers metricSet
		if err := w.layers(ctx, tr, &layers); err != nil {
			return res, fmt.Errorf("layer probes: %w", err)
		}
		layers.add("trace.overhead_ratio", ratio(median(walls(traced)), median(walls(plain))), "ratio")
		if layers, err = complete(layers, perLayerDefs()); err != nil {
			return res, err
		}
		dir := filepath.Join(o.out, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return res, err
		}
		path := filepath.Join(dir, runID+".json")
		if err := tr.write(path); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(tr.closed()), path)
		printSelfTimes(out, tr.closed())
		printMetrics(out, "e2e (untraced rounds)", e2e)
		report = layers
	}
	w.report(out)
	fmt.Fprintf(out, "rounds seed=%d untraced_s=%.3f traced_s=%.3f\n", o.seed, walls(plain), walls(traced))
	fmt.Fprintf(out, "ops attempted=%d failed=%d error_rate=%g\n", res.Attempted, res.Failed,
		ratio(float64(res.Failed), float64(res.Attempted)))
	if o.trace {
		printMetrics(out, "layer", report)
	} else {
		printMetrics(out, "e2e", report)
		jobs := allJobs(plain)
		if p95, ok := percentile(jobs, 0.95); ok {
			fmt.Fprintf(out, "e2e job_p95_s %.6g s (%d jobs)\n", p95, len(jobs))
		} else {
			fmt.Fprintf(out, "e2e job_p95_s n/a: %d jobs leave fewer than %d beyond p95\n", len(jobs), minTail)
		}
	}
	res.Metrics = report.vals
	return res, nil
}

// endToEnd derives the end-to-end metrics of the untraced rounds.
func endToEnd(setups []float64, rounds []roundResult, liveHeap float64) metricSet {
	var m metricSet
	var wall, instrs float64
	allocs := make([]float64, len(rounds))
	for i, r := range rounds {
		wall += r.wall
		instrs += float64(r.simInstrs)
		allocs[i] = r.alloc
	}
	jobs := allJobs(rounds)
	m.add("setup_s", median(setups), "s")
	m.add("wall_s", median(walls(rounds)), "s")
	m.add("sim_minstr_per_s", instrs/wall/1e6, "Minstr/s")
	m.add("alloc_mb", median(allocs)/1e6, "MB")
	m.add("live_heap_mb", liveHeap/1e6, "MB")
	m.add("job_p50_s", median(jobs), "s")
	m.add("jobs_per_s", float64(len(jobs))/wall, "1/s")
	return m
}

func walls(rs []roundResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.wall
	}
	return out
}

func allJobs(rs []roundResult) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.jobs...)
	}
	return out
}

func printMetrics(w io.Writer, kind string, m metricSet) {
	for _, n := range m.names {
		v := m.vals[n]
		fmt.Fprintf(w, "%s %s %.6g %s\n", kind, n, v.Value, v.Unit)
	}
}

// printSelfTimes prints each span name's total and self time: its
// duration minus the union of its children.
func printSelfTimes(w io.Writer, spans []span) {
	tot, self := totals(spans), selfTimes(spans)
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "span %s total_s=%.4f self_s=%.4f\n", n, tot[n], self[n])
	}
}

// hostStamp names the host the numbers were measured on.
func hostStamp() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
