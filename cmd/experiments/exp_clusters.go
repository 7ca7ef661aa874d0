package main

import (
	"fmt"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/report"
	"github.com/netaware/netcluster/internal/stats"
)

func init() {
	register("fig3", "CDFs of clients and requests per cluster (Nagano)", runFig3)
	register("fig4", "Cluster distributions in reverse order of #clients (Nagano)", runFig4)
	register("fig5", "Cluster distributions in reverse order of #requests (Nagano)", runFig5)
	register("fig6", "Cross-log comparison of cluster distributions", runFig6)
	register("coverage", "Clusterable-client coverage (the 99.9% claim)", runCoverage)
}

func runFig3(e *env) {
	res := e.NetworkAware("Nagano")
	clusters := res.Clusters
	fmt.Printf("Nagano: %s clusters from %s clients\n\n",
		report.FmtInt(len(clusters)), report.FmtInt(res.NumClients()))

	printCDF := func(title string, values []int) {
		pts := stats.CDF(values)
		t := &report.Table{Title: title, Headers: []string{"x", "P(X <= x)"}}
		// Downsample the curve at log-spaced x positions.
		idx, _ := report.Downsample(make([]int, len(pts)), 16)
		for _, i := range idx {
			p := pts[i-1]
			t.AddRow(report.FmtInt(int(p.X)), report.FmtPct(p.Y))
		}
		fmt.Println(t)
	}
	clientCounts := cluster.ClientCounts(clusters)
	reqCounts := cluster.RequestCounts(clusters)
	printCDF("Figure 3(a): CDF of number of clients in a cluster", clientCounts)
	printCDF("Figure 3(b): CDF of number of requests issued from a cluster", reqCounts)

	sc := stats.Summarize(clientCounts)
	sr := stats.Summarize(reqCounts)
	fmt.Printf("clients/cluster: max=%s mean=%.1f | requests/cluster: max=%s mean=%.1f\n",
		report.FmtInt(sc.Max), sc.Mean, report.FmtInt(sr.Max), sr.Mean)
	fmt.Printf("heavy-tail check: request Gini %.3f > client Gini %.3f (paper: requests more heavy-tailed)\n",
		stats.Gini(reqCounts), stats.Gini(clientCounts))
}

func runFig4(e *env) {
	res := e.NetworkAware("Nagano")
	ordered := res.ByClientsDesc()
	fmt.Println(report.SeriesTable(
		"Figure 4: Nagano clusters in reverse order of #clients (log-spaced ranks)",
		"rank",
		[]string{"clients (a)", "requests (b)", "URLs (c)"},
		[][]int{cluster.ClientCounts(ordered), cluster.RequestCounts(ordered), cluster.URLCounts(ordered)},
		18))
	flagSmallBusy(res, ordered)
}

// flagSmallBusy reproduces the Figure 4 observation: some relatively small
// clusters issue a disproportionate share of requests/URLs — spider and
// proxy candidates.
func flagSmallBusy(res *cluster.Result, ordered []*cluster.Cluster) {
	totalReqs := 0
	urls := map[int32]struct{}{}
	for _, c := range ordered {
		totalReqs += c.Requests
		c.EachURL(func(u int32) { urls[u] = struct{}{} })
	}
	for i, c := range ordered {
		if i < len(ordered)/2 {
			continue // only the small half
		}
		reqShare := float64(c.Requests) / float64(totalReqs)
		urlShare := float64(c.NumURLs()) / float64(len(urls))
		if reqShare > 0.01 || urlShare > 0.2 {
			fmt.Printf("unusual: cluster %v has %d clients but %s of requests, %s of URLs (suspect spider/proxy)\n",
				c.Prefix, c.NumClients(), report.FmtPct(reqShare), report.FmtPct(urlShare))
		}
	}
}

func runFig5(e *env) {
	res := e.NetworkAware("Nagano")
	ordered := res.ByRequestsDesc()
	fmt.Println(report.SeriesTable(
		"Figure 5: Nagano clusters in reverse order of #requests (log-spaced ranks)",
		"rank",
		[]string{"requests (a)", "clients (b)", "URLs (c)"},
		[][]int{cluster.RequestCounts(ordered), cluster.ClientCounts(ordered), cluster.URLCounts(ordered)},
		18))
	// Busy clusters with very few clients are proxy/spider candidates.
	for _, c := range ordered[:min(10, len(ordered))] {
		if c.NumClients() <= 2 {
			fmt.Printf("busy cluster %v: %s requests from only %d client(s) — suspected proxy/spider\n",
				c.Prefix, report.FmtInt(c.Requests), c.NumClients())
		}
	}
}

func runFig6(e *env) {
	names := []string{"Apache", "EW3", "Nagano", "Sun"}
	for _, name := range names {
		res := e.NetworkAware(name)
		byC := res.ByClientsDesc()
		byR := res.ByRequestsDesc()
		fmt.Println(report.SeriesTable(
			fmt.Sprintf("Figure 6 (%s): by #clients — (a) clients, (b) requests", name),
			"rank",
			[]string{"clients", "requests"},
			[][]int{cluster.ClientCounts(byC), cluster.RequestCounts(byC)},
			10))
		fmt.Println(report.SeriesTable(
			fmt.Sprintf("Figure 6 (%s): by #requests — (c) requests, (d) clients", name),
			"rank",
			[]string{"requests", "clients"},
			[][]int{cluster.RequestCounts(byR), cluster.ClientCounts(byR)},
			10))
	}
}

func runCoverage(e *env) {
	t := &report.Table{
		Title:   "Coverage: fraction of clients clusterable (Section 3.2.2)",
		Headers: []string{"log", "clients", "clustered", "via BGP", "via netdump", "unclustered", "coverage"},
	}
	for _, name := range []string{"Apache", "EW3", "Nagano", "Sun"} {
		res := e.NetworkAware(name)
		na := cluster.NetworkAware{Table: e.Merged()}
		viaBGP, viaDump := 0, 0
		for _, c := range res.Clusters {
			for a := range c.Clients {
				if k, ok := na.SourceOf(a); ok {
					if k == bgp.SourceBGP {
						viaBGP++
					} else {
						viaDump++
					}
				}
			}
		}
		t.AddRow(name,
			report.FmtInt(res.NumClients()+len(res.Unclustered)),
			report.FmtInt(res.NumClients()),
			report.FmtInt(viaBGP),
			report.FmtInt(viaDump),
			report.FmtInt(len(res.Unclustered)),
			report.FmtPct(res.Coverage()))
	}
	fmt.Println(t)
	fmt.Println("paper: 99.9% clusterable with merged table; ~99% with BGP tables alone")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
