// Command benchdiff compares a fresh benchmark recording against a
// committed baseline and fails when gated rows regress:
//
//	benchdiff -old BENCH_clustering.json -new bench-fresh.json
//
// Every benchmark present in both recordings is reported with its ns/op
// and allocs/op deltas. Rows matching -gate (default: the compiled
// lookup table, the CLF ingestion fast path, the batch lookup kernel,
// the snapshot loader and the other hot paths the observability layer
// must not tax, plus the churn writer's delta apply and the clustering
// pass, in memory and over a stream) additionally
// enforce -threshold: a gated row whose ns/op or
// allocs/op grew by more than the threshold fraction exits nonzero.
// Rows matching -zero-alloc (default: the sketch update and bounded
// accumulator firehose paths) must additionally report exactly zero
// allocs/op in the fresh recording — an absolute contract, not a
// delta, so it binds even before a baseline row exists.
// When the fresh recording carries both the single-probe compiled bench
// and the batch kernel bench, -min-batch-speedup additionally enforces
// the kernel's raison d'être: per-address batch cost at least that many
// times cheaper than a single-probe loop. Likewise -min-shard-scaling
// bounds the router's fan-out overhead against the single-shard
// baseline when both router benches are present. `make bench-gate`
// wires this up; CI runs it as a non-blocking job because single-run
// timings on
// shared runners are noisy — the committed-machine numbers in
// BENCH_clustering.json remain the authoritative record.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"

	"github.com/netaware/netcluster/internal/benchfmt"
)

func main() {
	oldPath := flag.String("old", "BENCH_clustering.json", "baseline recording")
	newPath := flag.String("new", "", "fresh recording to compare (required)")
	threshold := flag.Float64("threshold", 0.25, "max allowed fractional regression on gated rows")
	gate := flag.String("gate", "^Benchmark(LongestPrefixMatchCompiled|CLFParseStream|LookupBatch|SnapshotLoad|RouterFanout|DeltaBroadcast|TraceHeaderInject|TraceHeaderExtract|SketchUpdate|BoundedStream|ChurnDeltaApply|ClusterLogNetworkAware|ClusterStreamParallel/workers-1)$",
		"regexp of benchmark names whose regressions fail the gate")
	zeroAlloc := flag.String("zero-alloc", "^Benchmark(SketchUpdate|BoundedStream)$",
		"regexp of benchmark names whose fresh allocs/op must be exactly 0 — the firehose hot paths are garbage-free by contract, and unlike the fractional gate this holds even when the baseline lacks the row (empty disables)")
	minBatchSpeedup := flag.Float64("min-batch-speedup", 3,
		"minimum single-probe-ns / batch-ns-per-address ratio in the fresh recording (0 disables)")
	minShardScaling := flag.Float64("min-shard-scaling", 0.3,
		"minimum single-shard-ns / fanned-out-ns ratio for an equal-size routed batch in the fresh recording (0 disables); >1 means fan-out wins, the floor bounds its worst-case overhead")
	flag.Parse()

	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		flag.Usage()
		os.Exit(2)
	}
	gateRe, err := regexp.Compile(*gate)
	if err != nil {
		fatal(fmt.Errorf("bad -gate pattern: %w", err))
	}
	var zeroRe *regexp.Regexp
	if *zeroAlloc != "" {
		if zeroRe, err = regexp.Compile(*zeroAlloc); err != nil {
			fatal(fmt.Errorf("bad -zero-alloc pattern: %w", err))
		}
	}
	oldRec, err := benchfmt.ReadFile(*oldPath)
	if err != nil {
		fatal(err)
	}
	newRec, err := benchfmt.ReadFile(*newPath)
	if err != nil {
		fatal(err)
	}
	if oldRec.CPU != "" && newRec.CPU != "" && oldRec.CPU != newRec.CPU {
		fmt.Printf("note: comparing across CPUs (%q vs %q); timing deltas reflect hardware too\n\n",
			oldRec.CPU, newRec.CPU)
	}

	fmt.Printf("%-44s %14s %14s %8s %8s  %s\n",
		"benchmark", "old ns/op", "new ns/op", "Δns", "Δallocs", "gate")
	failed := 0
	compared := 0
	for _, nb := range newRec.Benchmarks {
		ob, ok := oldRec.Find(nb.Name)
		if !ok {
			fmt.Printf("%-44s %14s %14.4g %8s %8s  new row\n", nb.Name, "-", nb.NsPerOp, "-", "-")
			continue
		}
		compared++
		gated := gateRe.MatchString(nb.Name)
		dns := frac(ob.NsPerOp, nb.NsPerOp)
		dallocs := 0.0
		if ob.AllocsPerOp != nil && nb.AllocsPerOp != nil {
			dallocs = frac(*ob.AllocsPerOp, *nb.AllocsPerOp)
		}
		verdict := ""
		if gated {
			verdict = "ok"
			if dns > *threshold || dallocs > *threshold {
				verdict = "FAIL"
				failed++
			}
		}
		fmt.Printf("%-44s %14.4g %14.4g %7.1f%% %7.1f%%  %s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, 100*dns, 100*dallocs, verdict)
	}
	if compared == 0 {
		fatal(fmt.Errorf("no benchmarks in common between %s and %s", *oldPath, *newPath))
	}
	if zeroRe != nil {
		for _, nb := range newRec.Benchmarks {
			if !zeroRe.MatchString(nb.Name) {
				continue
			}
			switch {
			case nb.AllocsPerOp == nil:
				failed++
				fmt.Printf("\nFAIL: %s recorded without allocs/op; run the fresh benchmarks with -benchmem\n", nb.Name)
			case *nb.AllocsPerOp != 0:
				failed++
				fmt.Printf("\nFAIL: %s allocates (%g allocs/op); the firehose hot path must be garbage-free\n",
					nb.Name, *nb.AllocsPerOp)
			}
		}
	}
	if *minBatchSpeedup > 0 {
		single, ok1 := newRec.Find("BenchmarkLongestPrefixMatchCompiled")
		batch, ok2 := newRec.Find("BenchmarkLookupBatch")
		if ok1 && ok2 && batch.NsPerOp > 0 {
			ratio := single.NsPerOp / batch.NsPerOp
			fmt.Printf("\nbatch kernel speedup: %.1fx single-probe per-address cost (floor %.1fx)\n",
				ratio, *minBatchSpeedup)
			if ratio < *minBatchSpeedup {
				failed++
				fmt.Println("FAIL: batch kernel below required aggregate speedup")
			}
		}
	}
	if *minShardScaling > 0 {
		single, ok1 := newRec.Find("BenchmarkRouterSingleShard")
		fanout, ok2 := newRec.Find("BenchmarkRouterFanout")
		if ok1 && ok2 && fanout.NsPerOp > 0 {
			ratio := single.NsPerOp / fanout.NsPerOp
			fmt.Printf("\nrouter fan-out scaling: %.2fx the single-shard batch cost (floor %.2fx)\n",
				ratio, *minShardScaling)
			if ratio < *minShardScaling {
				failed++
				fmt.Println("FAIL: routed fan-out costs more than the allowed multiple of a single-shard batch")
			}
		}
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d gated benchmark(s) regressed beyond %.0f%%", failed, *threshold*100))
	}
	fmt.Printf("\nbenchdiff: %d benchmarks compared, gated rows within %.0f%%\n", compared, *threshold*100)
}

// frac returns the fractional growth from old to new (positive = slower
// or more allocations). A zero baseline only regresses if the new value
// is nonzero.
func frac(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 1
	}
	return (new - old) / old
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(1)
}
