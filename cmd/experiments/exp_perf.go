package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/report"
	"github.com/netaware/netcluster/internal/weblog"
)

func init() {
	register("perf", "Compiled lookup table and parallel clustering engine timings", runPerf)
}

// runPerf is not a paper experiment but an engineering one: it times the
// compiled-table lookup against the two-tree reference and the parallel
// one-pass clustering engine against its sequential case, on this
// machine, at the current scale. `go test -bench` (see `make bench-json`)
// produces the statistically careful numbers; this gives a quick in-situ
// reading with the same inputs the other experiments use.
func runPerf(e *env) {
	merged := e.Merged()
	compiled := merged.CompileCtx(e.Ctx())
	l := e.Log("Nagano")
	clients := l.Clients()
	na := cluster.NetworkAware{Table: merged}
	nac := na.Compile()

	// Lookup timing over the real client population, enough rounds to
	// outlast timer resolution.
	const rounds = 50
	timeIt := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	dTree := timeIt(func() {
		for r := 0; r < rounds; r++ {
			for _, c := range clients {
				merged.Lookup(c)
			}
		}
	})
	dComp := timeIt(func() {
		for r := 0; r < rounds; r++ {
			for _, c := range clients {
				compiled.Lookup(c)
			}
		}
	})
	nLookups := rounds * len(clients)

	t := &report.Table{
		Title:   "Lookup engines: merged two-tree walk vs compiled flat table",
		Headers: []string{"Engine", "Prefixes", "Lookups", "Total", "ns/lookup"},
	}
	perOp := func(d time.Duration, n int) string {
		return report.FmtFloat(float64(d.Nanoseconds()) / float64(n))
	}
	t.AddRow("merged (two trees)", report.FmtInt(merged.Len()), report.FmtInt(nLookups),
		dTree.Round(time.Millisecond), perOp(dTree, nLookups))
	t.AddRow("compiled (one walk)", report.FmtInt(compiled.Len()), report.FmtInt(nLookups),
		dComp.Round(time.Millisecond), perOp(dComp, nLookups))
	fmt.Println(t)
	if dComp > 0 {
		fmt.Printf("compiled speedup: %.1fx over two-tree lookup (%d flattened nodes)\n\n",
			float64(dTree)/float64(dComp), compiled.NumNodes())
	}

	// Clustering engines over the full Nagano log. Every run is checked
	// against the sequential cluster/coverage counts — a perf experiment
	// that silently changed answers would be worse than a slow one.
	ref := cluster.ClusterLog(l, na)
	t2 := &report.Table{
		Title:   "Clustering engines on the Nagano log",
		Headers: []string{"Engine", "Clusters", "Coverage", "Total"},
	}
	addRun := func(label string, f func() *cluster.Result) {
		var res *cluster.Result
		d := timeIt(func() { res = f() })
		if len(res.Clusters) != len(ref.Clusters) || res.Coverage() != ref.Coverage() {
			e.fail(fmt.Errorf("%s diverged from the sequential reference", label))
		}
		t2.AddRow(label, report.FmtInt(len(res.Clusters)),
			report.FmtPct(res.Coverage()), d.Round(time.Millisecond))
	}
	addRun("sequential", func() *cluster.Result { return cluster.ClusterLogCtx(e.Ctx(), l, na) })
	addRun("sequential+compiled", func() *cluster.Result { return cluster.ClusterLogCtx(e.Ctx(), l, nac) })
	fmt.Println(t2)

	// Streaming: serialize once, then run the one-pass engine at 1, 2 and
	// 4 workers.
	var buf bytes.Buffer
	if err := weblog.WriteCLF(&buf, l); err != nil {
		e.fail(err)
	}
	t3 := &report.Table{
		Title:   "One-pass CLF clustering (zero-alloc ingestion fast path)",
		Headers: []string{"Engine", "Workers", "MB", "Total", "MB/s"},
	}
	mb := float64(buf.Len()) / (1 << 20)
	addStream := func(label string, workers int, f func() (*cluster.StreamResult, error)) {
		var res *cluster.StreamResult
		d := timeIt(func() {
			var err error
			if res, err = f(); err != nil {
				e.fail(err)
			}
		})
		if len(res.Clusters) != len(ref.Clusters) {
			e.fail(fmt.Errorf("%s diverged from the sequential reference", label))
		}
		t3.AddRow(label, report.FmtInt(workers), report.FmtFloat(mb),
			d.Round(time.Millisecond), report.FmtFloat(mb/d.Seconds()))
	}
	addStream("stream", 1, func() (*cluster.StreamResult, error) {
		return cluster.ClusterStreamCtx(e.Ctx(), bytes.NewReader(buf.Bytes()), nac)
	})
	for _, w := range []int{2, 4} {
		w := w
		addStream("stream-parallel", w, func() (*cluster.StreamResult, error) {
			return cluster.ClusterStreamParallelCtx(e.Ctx(), bytes.NewReader(buf.Bytes()), nac, cluster.ParallelOptions{Workers: w})
		})
	}
	fmt.Println(t3)

	// Fallback demonstration: the generated log is all-canonical CLF, so
	// everything above rides the byte fast path. Real logs are messier —
	// re-stream a small slice with tabs instead of single spaces, which the
	// fast parser rejects and the strict whitespace-splitting parser
	// accepts, to show the fallback (and its counters) working.
	const fallbackLines = 64
	sample := buf.Bytes()
	for i, n := 0, 0; i < len(sample); i++ {
		if sample[i] == '\n' {
			if n++; n == fallbackLines {
				sample = sample[:i+1]
				break
			}
		}
	}
	mangled := bytes.ReplaceAll(sample, []byte(`" 200 `), []byte("\"\t200\t"))
	st, err := weblog.StreamCLF(bytes.NewReader(mangled), func(weblog.StreamRecord) bool { return true })
	if err != nil {
		e.fail(err)
	}
	fmt.Printf("strict-parser fallback: %d tab-separated lines parsed via the fallback path "+
		"(fast path handled %d of %d total)\n",
		st.Lines, l.Stats().Requests, l.Stats().Requests+st.Lines)
}
