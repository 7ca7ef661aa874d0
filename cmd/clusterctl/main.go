// Command clusterctl clusters the clients of a web server log against one
// or more routing-table snapshots and prints the resulting clusters.
//
//	clusterctl -log access.log -table aads.txt -table arin.txt [-method network-aware] [-top 20]
//
// The log is Common Log Format (plain or combined); snapshot files use the
// line format documented in internal/bgp (one prefix per line in CIDR,
// netmask or classful notation, optionally with pipe-separated metadata).
// Method "simple" (first 24 bits) and "classful" need no tables.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"sort"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/report"
	"github.com/netaware/netcluster/internal/weblog"
)

type tableFlags []string

func (t *tableFlags) String() string     { return fmt.Sprint(*t) }
func (t *tableFlags) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var tables tableFlags
	logPath := flag.String("log", "", "web server log in Common Log Format (required)")
	method := flag.String("method", "network-aware", "clustering method: network-aware, simple, classful")
	top := flag.Int("top", 20, "clusters to print, busiest first")
	threshold := flag.Float64("threshold", 0, "if > 0, report busy clusters covering this fraction of requests")
	stream := flag.Bool("stream", false, "single-pass streaming mode for logs too large to load")
	workers := flag.Int("workers", 0, "with -stream, parsing workers: 0 or 1 sequential, -1 GOMAXPROCS")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file on exit")
	traceOut := flag.String("trace-out", "", "write the flight-recorder trace (Chrome trace_event JSON) to this file on exit")
	flag.Var(&tables, "table", "routing-table snapshot file (repeatable; required for network-aware)")
	flag.Parse()

	if *logPath == "" {
		fmt.Fprintln(os.Stderr, "clusterctl: -log is required")
		flag.Usage()
		os.Exit(2)
	}
	workersSet := false
	flag.Visit(func(f *flag.Flag) { workersSet = workersSet || f.Name == "workers" })
	if workersSet && !*stream {
		fmt.Fprintln(os.Stderr, "clusterctl: -workers needs -stream: only the one-pass engine runs in parallel")
		flag.Usage()
		os.Exit(2)
	}
	nWorkers := *workers
	if nWorkers < 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}

	// One root span covers the run; everything below (table compile,
	// parse, clustering fan-out) nests under it in the trace.
	ctx, root := obsv.StartTraceSpan(context.Background(), "clusterctl.run")
	root.SetAttr("method", *method)
	root.SetAttrInt("workers", int64(nWorkers))
	defer func() {
		root.End()
		writeTrace(*traceOut)
	}()

	var method_ cluster.Clusterer
	switch *method {
	case "network-aware":
		if len(tables) == 0 {
			fatal(fmt.Errorf("network-aware clustering needs at least one -table"))
		}
		merged := bgp.NewMerged()
		for _, path := range tables {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			snap, err := bgp.ReadSnapshot(f)
			f.Close()
			if err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
			if snap.Name == "" {
				snap.Name = path
			}
			merged.Add(snap)
		}
		fmt.Printf("merged table: %s BGP + %s registry prefixes\n",
			report.FmtInt(merged.NumPrimary()), report.FmtInt(merged.NumSecondary()))
		na := cluster.NetworkAware{Table: merged}
		if nWorkers > 1 {
			// The compiled table is what makes the parallel workers'
			// lock-free concurrent lookups safe.
			na.Compiled = merged.CompileCtx(ctx)
		}
		method_ = na
	case "simple":
		method_ = cluster.Simple{}
	case "classful":
		method_ = cluster.Classful{}
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}

	f, err := os.Open(*logPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	if *stream {
		runStreaming(ctx, f, method_, *top, nWorkers)
		writeMetrics(*metricsOut)
		return
	}

	l, err := weblog.ReadCLF(f, *logPath)
	if err != nil {
		fatal(err)
	}
	res := cluster.ClusterLogCtx(ctx, l, method_)

	st := l.Stats()
	fmt.Printf("log: %s requests, %s clients, %s URLs\n",
		report.FmtInt(st.Requests), report.FmtInt(st.UniqueClients), report.FmtInt(st.UniqueURLs))
	fmt.Printf("clusters: %s (%s coverage, %s unclustered clients)\n\n",
		report.FmtInt(len(res.Clusters)), report.FmtPct(res.Coverage()),
		report.FmtInt(len(res.Unclustered)))

	ordered := res.ByRequestsDesc()
	if *threshold > 0 {
		th := res.ThresholdBusy(*threshold)
		fmt.Printf("busy clusters covering %s of requests: %s (smallest issues %s requests)\n\n",
			report.FmtPct(*threshold), report.FmtInt(len(th.Busy)), report.FmtInt(th.Threshold))
		ordered = th.Busy
	}
	if len(ordered) > *top {
		ordered = ordered[:*top]
	}
	t := &report.Table{
		Title:   "clusters by request volume",
		Headers: []string{"prefix", "clients", "requests", "URLs", "bytes"},
	}
	for _, c := range ordered {
		t.AddRow(c.Prefix.String(), report.FmtInt(c.NumClients()),
			report.FmtInt(c.Requests), report.FmtInt(c.NumURLs()), report.FmtInt(int(c.Bytes)))
	}
	fmt.Println(t)
	writeMetrics(*metricsOut)
}

// writeMetrics dumps the process metric registry as JSON, for runs whose
// parse/lookup accounting should be archived next to their output.
func writeMetrics(path string) {
	if path == "" {
		return
	}
	if err := obsv.WriteFile(path); err != nil {
		fatal(err)
	}
}

// writeTrace dumps the flight-recorder ring as a Chrome trace_event file
// that chrome://tracing (or Perfetto) opens directly.
func writeTrace(path string) {
	if path == "" {
		return
	}
	if err := obsv.WriteTraceFile(path); err != nil {
		fatal(err)
	}
}

// runStreaming clusters the log in one pass without loading it.
func runStreaming(ctx context.Context, f *os.File, method cluster.Clusterer, top, workers int) {
	var res *cluster.StreamResult
	var err error
	if workers > 1 {
		res, err = cluster.ClusterStreamParallelCtx(ctx, f, method, cluster.ParallelOptions{Workers: workers})
	} else {
		res, err = cluster.ClusterStreamCtx(ctx, f, method)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stream: %s records, %s URLs, %s agents\n",
		report.FmtInt(res.Stats.Records), report.FmtInt(res.Stats.URLs),
		report.FmtInt(res.Stats.Agents))
	fmt.Printf("clusters: %s (%s coverage, %s unclustered clients)\n\n",
		report.FmtInt(len(res.Clusters)), report.FmtPct(res.Coverage()),
		report.FmtInt(len(res.Unclustered)))
	ordered := make([]*cluster.StreamCluster, 0, len(res.Clusters))
	for _, c := range res.Clusters {
		ordered = append(ordered, c)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Requests != ordered[j].Requests {
			return ordered[i].Requests > ordered[j].Requests
		}
		return netutil.ComparePrefix(ordered[i].Prefix, ordered[j].Prefix) < 0
	})
	if len(ordered) > top {
		ordered = ordered[:top]
	}
	t := &report.Table{
		Title:   "clusters by request volume (streaming)",
		Headers: []string{"prefix", "clients", "requests", "URLs", "bytes"},
	}
	for _, c := range ordered {
		t.AddRow(c.Prefix.String(), report.FmtInt(c.NumClients()),
			report.FmtInt(c.Requests), report.FmtInt(c.NumURLs()), report.FmtInt(int(c.Bytes)))
	}
	fmt.Println(t)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "clusterctl: %v\n", err)
	os.Exit(1)
}
