// Command ebsbench is ebslab's benchmark. It drives each workload through
// the program's public functions only, checks every output against a
// reference computed outside the timed window, and prints one JSON result
// as its last line of standard output.
//
//	bash ebsbench/run.sh --workload sim --seed 1 --seconds 24 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with no
// tracing. With --trace 1 a separate traced run records spans around each
// public call, writes them under .bench_build/spans/, and the result holds
// the per-layer metrics instead. Workloads and metrics are declared in
// BENCHMARK.json at the repository root; the tables below are the same
// lists, and a test holds the two in step.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// endToEnd lists the end-to-end metrics, name -> unit.
var endToEnd = map[string]string{
	"setup_s":           "s",
	"ios_per_s":         "1/s",
	"study_p50_ms":      "ms",
	"heap_retained_mib": "MiB",
}

// perLayer lists the per-layer metrics, name -> unit. Every traced run
// reports all of them; a layer the workload bypasses reads 0. A layer that
// only some workloads drive is given as a rate, a count or a share of the
// workload's traced time, never as a time, so that a bypassed layer's 0 is
// not a duration. METRICS.md maps each one to the end-to-end metric and
// workload it should move.
var perLayer = map[string]string{
	"workload.generate_s":   "s",
	"workload.events_per_s": "1/s",
	"latency.samples_per_s": "1/s",
	"diting.emit_per_s":     "1/s",
	"sketch.ingest_per_s":   "1/s",
	"sketch.merges_per_s":   "1/s",
	"ebs.ios":               "count",
	"ebs.alloc_mib":         "MiB",
	"ebs.gc_cycles":         "count",
	"ebs.shard_max_share":   "ratio",
	"ebs.merge_share":       "ratio",
	"ebs.vd_median_to_mean": "ratio",
	"ebs.vd_max_share":      "ratio",
	"ebs.vd_top1pct_share":  "ratio",
	"ebs.scaling_eff":       "ratio",
	"control.observe_share": "ratio",
	"control.plan_share":    "ratio",
	"control.actuate_share": "ratio",
	"control.decisions":     "count",
	"control.epochs":        "count",
	"control.mean_cov":      "ratio",
	"core.aggregate_share":  "ratio",
	"hypervisor.share":      "ratio",
	"throttle.share":        "ratio",
	"balancer.share":        "ratio",
	"predict.share":         "ratio",
	"cache.share":           "ratio",
	"guestcache.share":      "ratio",
	"figures.alloc_mib":     "MiB",
	"bench.trace_overhead":  "ratio",
}

// serveLayer lists the layer metrics only the serve workload produces. It
// is not among BENCHMARK.json's workloads (see METRICS.md), so these are
// printed with its result but kept out of the JSON metric set.
var serveLayer = map[string]string{
	"gateway.submit_ms_p50":     "ms",
	"gateway.queue_ms_p95":      "ms",
	"gateway.run_ms_p50":        "ms",
	"gateway.run_ms_p95":        "ms",
	"gateway.study_p95_ms":      "ms",
	"gateway.studies":           "count",
	"gateway.deduped":           "count",
	"gateway.rejected":          "count",
	"gateway.failed":            "count",
	"gateway.gen_late_ms_max":   "ms",
	"fabric.first_shard_ms_p50": "ms",
	"fabric.shard_gap_ms_p50":   "ms",
	"fabric.tail_ms_p50":        "ms",
	"scenario.bind_ms":          "ms",
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *Run) error{
	"sim":     runSim,
	"control": runControl,
	"serve":   runServe,
	"figures": runFigures,
}

// Run is one benchmark invocation: its inputs, its tracer (nil when
// untraced), the output-check tally, and the metrics it produced.
type Run struct {
	Workload string
	Seed     int64
	Seconds  float64
	Procs    int
	Trace    *Tracer

	Checks  Tally
	Metrics map[string]float64
}

// Tally counts output checks. Every check is one attempted operation; a
// mismatch or an error is one failure.
type Tally struct {
	Attempted int
	Failed    int
	Notes     []string
}

// Check records one comparison of an output against its reference.
func (t *Tally) Check(what, got, want string) {
	t.Attempted++
	if got != want || got == "" {
		t.Failed++
		t.Notes = append(t.Notes, fmt.Sprintf("%s: got %q, want %q", what, got, want))
	}
}

// Fail records one attempted operation that failed outright.
func (t *Tally) Fail(what string, err error) {
	t.Attempted++
	t.Failed++
	t.Notes = append(t.Notes, fmt.Sprintf("%s: %v", what, err))
}

// ErrorRate is failed / attempted.
func (t *Tally) ErrorRate() float64 {
	if t.Attempted == 0 {
		return 1
	}
	return float64(t.Failed) / float64(t.Attempted)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sim, control, serve or figures")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 24, "timed window per run, seconds")
		traced  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "ebsbench: usage: --workload {sim|control|serve|figures} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	r := &Run{
		Workload: *name,
		Seed:     *seed,
		Seconds:  *seconds,
		Procs:    runtime.NumCPU(),
		Metrics:  make(map[string]float64),
	}
	runtime.GOMAXPROCS(r.Procs)
	if *traced == 1 {
		r.Trace = &Tracer{}
	}
	host, err := hostInfo(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ebsbench:", err)
		os.Exit(1)
	}
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)

	if err := fn(context.Background(), r); err != nil {
		fmt.Fprintf(os.Stderr, "ebsbench: %s: %v\n", r.Workload, err)
		os.Exit(1)
	}
	for _, n := range r.Checks.Notes {
		fmt.Printf("check failed: %s\n", n)
	}
	if r.Trace != nil {
		path, err := r.Trace.Write(".bench_build/spans", fmt.Sprintf("%s-seed%d.json", r.Workload, r.Seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ebsbench: write spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans %d written to %s\n", len(r.Trace.Spans()), path)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ebsbench:", err)
		os.Exit(1)
	}
	fmt.Printf("error_rate %.4g (%d failed of %d attempted)\n", r.Checks.ErrorRate(), res.Failed, res.Attempted)
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// result selects the metric set of the run's mode and checks it is whole.
func (r *Run) result() (result, error) {
	want := endToEnd
	if r.Trace != nil {
		want = perLayer
	}
	res := result{
		Correct:   r.Checks.Failed == 0 && r.Checks.Attempted > 0,
		Attempted: r.Checks.Attempted,
		Failed:    r.Checks.Failed,
		Metrics:   make(map[string]metric, len(want)),
	}
	for _, n := range sortedKeys(want) {
		v, ok := r.Metrics[n]
		if r.Trace != nil && !ok {
			v, ok = 0, true // a bypassed layer does no work
		}
		if !ok {
			return res, fmt.Errorf("workload %s did not measure %s", r.Workload, n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("workload %s measured %s = %v", r.Workload, n, v)
		}
		fmt.Printf("metric %-26s %14.6g %s\n", n, v, want[n])
		res.Metrics[n] = metric{Value: v, Unit: want[n]}
	}
	for _, n := range sortedKeys(r.Metrics) {
		if u, ok := serveLayer[n]; ok {
			fmt.Printf("metric %-26s %14.6g %s\n", n, r.Metrics[n], u)
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// retainedHeapMiB is the heap still in use after forced collections: what
// the process keeps once its work is done. Two cycles also empty the
// sync.Pool victim caches, so pooled scratch buffers do not count.
func retainedHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// allocDelta measures bytes allocated and GC cycles completed across fn.
func allocDelta(fn func() error) (mib float64, gcs uint32, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), b.NumGC - a.NumGC, err
}

// timed runs fn inside the timed window, after a forced GC so that one
// operation's garbage is not collected on the next one's clock.
func timed(fn func() error) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// window repeats op while another operation of the mean length so far
// still fits in the run's seconds, and always runs it once. Checks between
// operations run off the clock.
func (r *Run) window(op func(i int) time.Duration) {
	var spent time.Duration
	for i := 0; i == 0 || spent.Seconds()*float64(i+1)/float64(i) <= r.Seconds; i++ {
		spent += op(i)
	}
}

// setupTimes runs fn n times and returns the median wall time in seconds.
func setupTimes(n int, fn func() error) (float64, error) {
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, secs(time.Since(t0)))
	}
	return Median(ts), nil
}
