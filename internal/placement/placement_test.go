package placement

import (
	"testing"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/weblog"
)

// buildResult makes a log with three clusters of known sizes, clustered
// against a table whose entries carry origin ASes.
func buildResult(t *testing.T) (*cluster.Result, *bgp.Merged) {
	t.Helper()
	snap := &bgp.Snapshot{Name: "T", Kind: bgp.SourceBGP, Entries: []bgp.Entry{
		{Prefix: netutil.MustParsePrefix("10.1.0.0/16"), ASPath: []uint32{100, 7018}},
		{Prefix: netutil.MustParsePrefix("10.2.0.0/16"), ASPath: []uint32{100, 7018}},
		{Prefix: netutil.MustParsePrefix("10.3.0.0/16"), ASPath: []uint32{100, 701}},
		{Prefix: netutil.MustParsePrefix("10.4.0.0/16")}, // no AS info
	}}
	m := bgp.NewMerged()
	m.Add(snap)

	l := &weblog.Log{
		Name: "t", Start: time.Unix(0, 0), Duration: time.Hour,
		Resources: []weblog.Resource{{Path: "/a", Size: 1000}},
	}
	emit := func(client string, n int) {
		a := netutil.MustParseAddr(client)
		for i := 0; i < n; i++ {
			l.Requests = append(l.Requests, weblog.Request{Time: uint32(i), Client: a})
		}
	}
	emit("10.1.0.1", 60)
	emit("10.1.0.2", 40) // cluster 10.1/16: 100 requests, 2 clients
	emit("10.2.0.1", 50) // cluster 10.2/16: 50 requests
	emit("10.3.0.1", 30) // cluster 10.3/16: 30 requests
	emit("10.4.0.1", 20) // cluster 10.4/16: 20 requests, no AS
	return cluster.ClusterLog(l, cluster.NetworkAware{Table: m}), m
}

func TestPerClusterPlan(t *testing.T) {
	res, _ := buildResult(t)
	// 100% coverage so every cluster is planned; 40 requests per proxy.
	plan, err := PerCluster(res, 1.0, ByRequests, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != 4 {
		t.Fatalf("assignments = %d", len(plan.Assignments))
	}
	// Sorted by load: 100, 50, 30, 20 → proxies 3, 2, 1, 1.
	wantProxies := []int{3, 2, 1, 1}
	for i, a := range plan.Assignments {
		if a.Proxies != wantProxies[i] {
			t.Errorf("assignment %d (%v, load %d): proxies = %d, want %d",
				i, a.Cluster.Prefix, a.Load, a.Proxies, wantProxies[i])
		}
	}
	if plan.TotalProxies != 7 {
		t.Fatalf("total proxies = %d", plan.TotalProxies)
	}
}

func TestPerClusterThresholding(t *testing.T) {
	res, _ := buildResult(t)
	// 70% of 200 = 140 → busy clusters: 100 + 50 = 150 ≥ 140 → 2 clusters.
	plan, err := PerCluster(res, 0.70, ByRequests, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != 2 {
		t.Fatalf("busy assignments = %d, want 2", len(plan.Assignments))
	}
	for _, a := range plan.Assignments {
		if a.Proxies != 1 {
			t.Errorf("big per-proxy capacity must yield 1 proxy, got %d", a.Proxies)
		}
	}
}

func TestPerClusterMetrics(t *testing.T) {
	res, _ := buildResult(t)
	for _, m := range []Metric{ByClients, ByRequests, ByURLs, ByBytes} {
		plan, err := PerCluster(res, 1.0, m, 1)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for _, a := range plan.Assignments {
			if a.Load != m.value(a.Cluster) {
				t.Errorf("%v: load mismatch", m)
			}
			if int64(a.Proxies) != a.Load {
				t.Errorf("%v: perProxy=1 must give proxies == load", m)
			}
		}
	}
	if _, err := PerCluster(res, 1.0, ByRequests, 0); err == nil {
		t.Error("zero capacity must fail")
	}
}

func TestMetricString(t *testing.T) {
	for m, want := range map[Metric]string{
		ByClients: "clients", ByRequests: "requests", ByURLs: "urls", ByBytes: "bytes",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestGroupByAS(t *testing.T) {
	res, table := buildResult(t)
	plan, err := PerCluster(res, 1.0, ByRequests, 40)
	if err != nil {
		t.Fatal(err)
	}
	groups := groupBy(plan, table, nil)
	// AS 7018 gets clusters 10.1 and 10.2; AS 701 gets 10.3; unknown gets 10.4.
	if len(groups) != 3 {
		t.Fatalf("groups = %d: %+v", len(groups), groups)
	}
	if groups[0].OriginAS != 7018 || len(groups[0].Members) != 2 || groups[0].Requests != 150 {
		t.Fatalf("first group = %+v", groups[0])
	}
	if groups[0].Proxies != 5 {
		t.Fatalf("AS 7018 proxies = %d, want 3+2", groups[0].Proxies)
	}
	var sawUnknown bool
	for _, g := range groups {
		if g.OriginAS == 0 {
			sawUnknown = true
			if len(g.Members) != 1 || g.Members[0].Cluster.Prefix.String() != "10.4.0.0/16" {
				t.Fatalf("unknown-AS group = %+v", g)
			}
		}
	}
	if !sawUnknown {
		t.Fatal("missing unknown-AS group")
	}
	// Total proxies preserved.
	total := 0
	for _, g := range groups {
		total += g.Proxies
	}
	if total != plan.TotalProxies {
		t.Fatalf("grouping changed proxy count: %d vs %d", total, plan.TotalProxies)
	}
}

func TestGroupByASAndLocation(t *testing.T) {
	res, table := buildResult(t)
	plan, err := PerCluster(res, 1.0, ByRequests, 40)
	if err != nil {
		t.Fatal(err)
	}
	// AS 7018 spans two countries: its two clusters split into two groups.
	countries := map[uint32]string{7018: "", 701: "jp"}
	calls := 0
	countryOf := func(asn uint32) string {
		calls++
		if asn == 7018 {
			// Pretend whois places 7018's clusters in different... a
			// single AS has one country in whois, so model it plainly:
			return "us"
		}
		return countries[asn]
	}
	groups := GroupByASAndLocation(plan, table, countryOf)
	for _, g := range groups {
		switch g.OriginAS {
		case 7018:
			if g.Country != "us" || len(g.Members) != 2 {
				t.Fatalf("AS 7018 group = %+v", g)
			}
		case 701:
			if g.Country != "jp" {
				t.Fatalf("AS 701 group = %+v", g)
			}
		}
	}
	if calls == 0 {
		t.Fatal("countryOf never consulted")
	}
	// Nil lookup degrades to plain AS grouping.
	plain := GroupByASAndLocation(plan, table, nil)
	if len(plain) != len(groupBy(plan, table, nil)) {
		t.Fatal("nil countryOf must match GroupByAS")
	}
}
