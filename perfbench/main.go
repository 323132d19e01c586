// Command perfbench is photoloop's layered benchmark. It drives the
// program's Go API from one process — no subprocesses — through three
// workloads that stress different layers:
//
//	study-cold   sweep.RunStudy on a fresh search cache, then again warm
//	serve-mixed  an in-process sweep.Server under a closed-loop /v1/eval mix
//	job-sharded  jobs.Manager with shared-nothing shard workers over loopback
//
// Run it through run.sh from the checkout root:
//
//	bash perfbench/run.sh --workload study-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Earlier lines carry the deterministic
// work counters and, in traced runs, the full per-layer report. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports untraced,
// in BENCHMARK.json order. Two more are measured but only printed on the
// e2e line, because a bound on them would measure the machine: ops_per_s,
// a mean over the window that follows the machine's momentary speed, and
// warm_p90_ms, which has over a thousand samples beyond it in serve-mixed
// but only three or four in the other workloads, where one slow burst of
// the machine moves it by half.
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"cold_ms", "ms"}, {"warm_ms", "ms"}, {"rss_peak_mb", "MB"},
}

// perLayer lists the per-layer metrics every workload reports traced, in
// BENCHMARK.json order. A count of a layer the workload bypasses reads
// zero; timings of layers only some workloads reach are on the full
// per-layer report line instead (see README.md).
var perLayer = []metricSpec{
	{"mapper.searches", "count"}, {"mapper.search_busy_ms", "ms"}, {"mapper.search_p50_ms", "ms"},
	{"mapper.search_max_ms", "ms"}, {"mapper.evaluations", "count"}, {"mapper.pruned", "count"},
	{"mapper.delta_evals", "count"}, {"mapper.full_evals", "count"}, {"mapper.duplicates", "count"},
	{"mapper.invalid", "count"}, {"mapper.pruned_fraction", "ratio"},
	{"model.compile_us", "us"}, {"model.evaluate_ns", "ns"}, {"model.lowerbound_ns", "ns"},
	{"model.stage_ns", "ns"}, {"model.finish_ns", "ns"},
	{"mapper.cache_hits", "count"}, {"mapper.cache_misses", "count"}, {"mapper.disk_hits", "count"},
	{"sweep.self_ms", "ms"}, {"http.requests", "count"}, {"http.resp_bytes_mean", "B"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.alloc_mb", "MB"},
	{"runtime.heap_inuse_mb", "MB"},
	{"store.appends", "count"}, {"store.len", "count"}, {"store.segments", "count"},
	{"shard.leases", "count"}, {"shard.idle_polls", "count"}, {"shard.lease_work_ratio", "ratio"},
	{"shard.retries", "count"}, {"store.uploaded", "count"}, {"store.upload_batches", "count"},
	{"store.warm_hits", "count"}, {"trace.overhead_pct", "%"},
}

// bypassable are the per-layer metrics a workload may leave unset because
// it never reaches the layer; they read zero. Every other metric must be
// measured.
var bypassable = map[string]bool{
	"mapper.disk_hits": true, "http.requests": true, "http.resp_bytes_mean": true,
	"store.appends": true, "store.len": true, "store.segments": true,
	"shard.leases": true, "shard.idle_polls": true, "shard.lease_work_ratio": true,
	"shard.retries": true, "store.uploaded": true, "store.upload_batches": true,
	"store.warm_hits": true,
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// workers is the number of busy goroutines a workload may use: point
	// workers, HTTP clients or shard workers (nproc).
	workers int
	// scratch is this run's private directory for stores, removed at exit;
	// out is where traced runs write spans and tables.
	scratch, out string
}

// report is what a workload measured.
type report struct {
	attempted, failed int
	// failures describes the first few failed checks.
	failures []string
	e2e      map[string]metric
	layers   map[string]metric
	// counters are the deterministic work counters of one fixed
	// operation; they repeat exactly for a seed.
	counters map[string]int64
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}, counters: map[string]int64{}}
}

// fail counts a failed operation and remembers why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }

var workloads = map[string]func(*config) (*report, error){
	"study-cold":  runStudyCold,
	"serve-mixed": runServeMixed,
	"job-sharded": runJobSharded,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload: study-cold, serve-mixed or job-sharded")
	seed := flag.Int64("seed", 1, "seed for the mapper and every request generator")
	seconds := flag.Int("seconds", 20, "measurement window per run, seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	out, err := filepath.Abs(filepath.Join(".bench_build", "perfbench-out"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o777); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg := &config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workers: runtime.NumCPU(), scratch: scratch, out: out,
	}
	rep, err := fn(cfg)
	if err != nil {
		return err
	}
	rep.setE2E("rss_peak_mb", "MB", rssPeakMB())
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	fmt.Println("counters", mustJSON(sortedCounters(rep.counters)))

	fmt.Println("e2e", mustJSON(rep.e2e))
	metrics := map[string]metric{}
	want, got := endToEnd, rep.e2e
	if cfg.trace {
		want, got = perLayer, rep.layers
		fmt.Println("layers", mustJSON(rep.layers))
	}
	for _, sp := range want {
		m, ok := got[sp.name]
		if !ok && cfg.trace && bypassable[sp.name] {
			m, ok = metric{0, sp.unit}, true
		}
		if !ok || m.Unit != sp.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("workload %s measured no %s in %s: %+v", cfg.workload, sp.name, sp.unit, m)
		}
		metrics[sp.name] = m
	}
	fmt.Println(mustJSON(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics}))
	return nil
}

func mustJSON(v any) string {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers are encoded
	}
	return string(buf)
}

// sortedCounters renders counters as an ordered list of name=value pairs
// so the line diffs cleanly between runs.
func sortedCounters(c map[string]int64) []string {
	out := make([]string, 0, len(c))
	for k, v := range c {
		out = append(out, k+"="+strconv.FormatInt(v, 10))
	}
	sort.Strings(out)
	return out
}

// rssPeakMB is the process's peak resident set (VmHWM), in MB. Where
// /proc is unavailable it falls back to the Go runtime's total mapped
// memory, an upper bound.
func rssPeakMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// memDelta reports the runtime's GC and allocation activity between two
// snapshots as per-layer metrics.
func memDelta(r *report, before, after *runtime.MemStats) {
	r.setLayer("runtime.gc_cycles", "count", float64(after.NumGC-before.NumGC))
	r.setLayer("runtime.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	r.setLayer("runtime.alloc_mb", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	r.setLayer("runtime.heap_inuse_mb", "MB", float64(after.HeapInuse)/(1<<20))
}

// timeSetup runs setup n times and returns the median wall time in
// seconds plus the last setup's value; earlier values are discarded
// through drop.
func timeSetup[T any](n int, setup func() (T, error), drop func(T)) (float64, T, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			if i > 0 {
				drop(last)
			}
			var zero T
			return 0, zero, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 {
			drop(last)
		}
		last = v
	}
	return Median(secs), last, nil
}

// overheadPct is how much slower the traced samples ran than the
// untraced ones, as a percentage of the untraced median.
func overheadPct(untraced, traced []float64) float64 {
	u := Median(untraced)
	return 100 * (Median(traced) - u) / u
}
