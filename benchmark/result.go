package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Shape of every workload's measured phase: a warm-up, then numWindows
// back-to-back windows that split the --seconds budget evenly.
const (
	numWindows = 16
	warmup     = 2 * time.Second
	// setupReps is how often a run sets the workload up from nothing;
	// setup_s is the median, the last set-up is the one measured on.
	setupReps = 3
	// minHitRate fails a run whose addresses mostly miss the table.
	minHitRate = 0.99
)

// metric is one named, unit-carrying number of the output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable lines printed above the metrics
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, value float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unitOf[name]}
}

// print writes the notes, every metric by name and unit, and — as the
// last line — the JSON object the driver reads.
func (r *result) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed, correct=%v\n", r.Attempted, r.Failed, r.Correct)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// envNote records where the numbers were taken.
func envNote(root string) string {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s pid=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit, os.Getpid())
}

// timeSetups sets the workload up setupReps times from nothing and reports
// the median as setup_s; the last set-up is the one measured on. teardown
// runs between set-ups, outside the clock, and must drop every reference to
// the previous one, or two worlds are live at once and peak RSS doubles.
func (r *result) timeSetups(teardown func(), setup func() error) error {
	var secs []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	r.set(mSetup, median(secs))
	r.note("set-up times: %.4g s", secs)
	return nil
}

// The end-to-end metrics, reported by every workload.
const (
	mThroughput = "throughput_per_s"
	mLatP50     = "lat_p50_ms"
	mLatTail    = "lat_tail_ms"
	mCPU        = "cpu_us_per_item"
	mAllocs     = "allocs_per_item"
	mAllocBytes = "alloc_bytes_per_item"
	mPeakRSS    = "peak_rss_mb"
	mSetup      = "setup_s"
)

var endToEnd = []string{mThroughput, mLatP50, mLatTail, mCPU, mAllocs, mAllocBytes, mPeakRSS, mSetup}

// unitOf maps every metric the program can print to its unit; the
// BENCHMARK.json test holds the two in step.
var unitOf = map[string]string{
	mThroughput: "1/s",
	mLatP50:     "ms",
	mLatTail:    "ms",
	mCPU:        "us",
	mAllocs:     "count",
	mAllocBytes: "B",
	mPeakRSS:    "MiB",
	mSetup:      "s",

	// The per-layer ledger of the traced run; layers are package names.
	"shard.parse_ns_per_addr":              "ns",
	"shard.parse_allocs_per_addr":          "count",
	"shard.group_ns_per_addr":              "ns",
	"shard.resolve_ns_per_addr":            "ns",
	"shard.resolve_allocs_per_addr":        "count",
	"shard.encode_ns_per_addr":             "ns",
	"shard.encode_bytes_per_addr":          "B",
	"shard.decode_ns_per_addr":             "ns",
	"clusterd.batch_rtt_ms_p50":            "ms",
	"clusterrouter.rtt_ms_p50":             "ms",
	"clusterrouter.overhead_ms_p50":        "ms",
	"clusterd.lookup_rtt_ms_p50":           "ms",
	"clusterd.rejected_share":              "ratio",
	"clusterrouter.degraded_share":         "ratio",
	"radix.lookup_batch_ns_per_addr":       "ns",
	"churn.lookup_batch_ns_per_addr":       "ns",
	"bgp.lookup_single_ns_per_addr":        "ns",
	"bgp.delta_apply_ns_per_op":            "ns",
	"churn.apply_ms_p50":                   "ms",
	"churn.reader_slowdown_ratio":          "ratio",
	"bgp.compile_ms":                       "ms",
	"bgp.snapshot_load_ms":                 "ms",
	"shard.delta_encode_ns_per_op":         "ns",
	"shard.delta_decode_ns_per_op":         "ns",
	"shard.feed_lag_max_generations":       "count",
	"weblog.parse_ns_per_record":           "ns",
	"weblog.parse_allocs_per_record":       "count",
	"weblog.strict_fallback_share":         "ratio",
	"cluster.lookup_ns_per_record":         "ns",
	"cluster.accumulate_ns_per_record":     "ns",
	"cluster.stream_allocs_per_record":     "count",
	"cluster.bounded_ns_per_record":        "ns",
	"cluster.bounded_heap_mb":              "MiB",
	"cluster.parallel_speedup":             "ratio",
	"cluster.busy_observe_ns_per_addr":     "ns",
	"sketch.update_ns":                     "ns",
	"ledger.routed_batch.attributed_share": "ratio",
	"ledger.routed_batch.unattributed_ms":  "ms",
	"ledger.node_small.attributed_share":   "ratio",
	"ledger.node_small.unattributed_ms":    "ms",
	"trace.overhead_share":                 "ratio",
}

// perLayer lists the traced run's metrics: everything with a unit that is
// not end-to-end.
func perLayer() []string {
	e2e := make(map[string]bool)
	for _, n := range endToEnd {
		e2e[n] = true
	}
	var names []string
	for n := range unitOf {
		if !e2e[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// complete checks that the result holds exactly the named metrics, the
// contract between this program and BENCHMARK.json.
func (r *result) complete(names []string) error {
	for _, n := range names {
		if _, ok := r.Metrics[n]; !ok {
			return fmt.Errorf("self-check: metric %s was not measured", n)
		}
	}
	if len(r.Metrics) != len(names) {
		return fmt.Errorf("self-check: %d metrics measured, %d expected", len(r.Metrics), len(names))
	}
	return nil
}

// window is one measurement window reduced to its timing numbers.
type window struct {
	rate  float64 // items per second
	p50MS float64
	cpuUS float64 // system CPU microseconds per item
}

// newWindow reduces a window. One in which nothing completed ranks last
// on every metric instead of poisoning the sort with a NaN.
func newWindow(items int, seconds float64, latMS []float64, cpuSeconds float64) window {
	if items == 0 || len(latMS) == 0 {
		return window{rate: 0, p50MS: math.Inf(1), cpuUS: math.Inf(1)}
	}
	return window{
		rate:  float64(items) / seconds,
		p50MS: percentile(latMS, 50),
		cpuUS: cpuSeconds * 1e6 / float64(items),
	}
}

// timing fills the four timing metrics from the windows. tailMS is the
// workload's tail estimate, computed by the caller because its definition
// depends on how many operations a window holds.
func (r *result) timing(ws []window, tailMS float64) error {
	if len(ws) != numWindows {
		return fmt.Errorf("self-check: %d windows measured, want %d", len(ws), numWindows)
	}
	var rate, p50, cpu []float64
	for _, w := range ws {
		rate = append(rate, w.rate)
		p50 = append(p50, w.p50MS)
		cpu = append(cpu, w.cpuUS)
	}
	r.set(mThroughput, upperQuartile(rate))
	r.set(mLatP50, lowerQuartile(p50))
	r.set(mLatTail, tailMS)
	r.set(mCPU, lowerQuartile(cpu))
	for _, n := range []string{mThroughput, mLatP50, mLatTail, mCPU} {
		if v := r.Metrics[n].Value; math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
			return fmt.Errorf("self-check: %s is %v: too few windows completed any operation", n, v)
		}
	}
	if tailMS < r.Metrics[mLatP50].Value {
		return fmt.Errorf("self-check: lat_tail_ms %.6g below lat_p50_ms %.6g", tailMS, r.Metrics[mLatP50].Value)
	}
	// The raw windows, so that another estimator can be tried on a run
	// already made.
	r.note("window throughput_per_s: %.6g", rate)
	r.note("window lat_p50_ms: %.5g", p50)
	r.note("window cpu_us_per_item: %.5g", cpu)
	return nil
}
