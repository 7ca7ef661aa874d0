package cluster

import (
	"testing"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/weblog"
)

func pfx(s string) netutil.Prefix { return netutil.MustParsePrefix(s) }
func addr(s string) netutil.Addr  { return netutil.MustParseAddr(s) }

func mergedTable(prefixes ...string) *bgp.Merged {
	s := &bgp.Snapshot{Name: "T", Kind: bgp.SourceBGP}
	for _, p := range prefixes {
		s.Entries = append(s.Entries, bgp.Entry{Prefix: pfx(p)})
	}
	m := bgp.NewMerged()
	m.Add(s)
	return m
}

// logOf builds a log from (client, url) pairs at increasing times.
func logOf(pairs ...[2]string) *weblog.Log {
	l := &weblog.Log{
		Name:     "t",
		Start:    time.Unix(0, 0),
		Duration: time.Hour,
		Agents:   []string{"UA"},
	}
	urlIdx := map[string]int32{}
	for i, p := range pairs {
		id, ok := urlIdx[p[1]]
		if !ok {
			id = int32(len(l.Resources))
			urlIdx[p[1]] = id
			l.Resources = append(l.Resources, weblog.Resource{Path: p[1], Size: 1000})
		}
		l.Requests = append(l.Requests, weblog.Request{
			Time: uint32(i), Client: addr(p[0]), URL: id,
		})
	}
	return l
}

func TestNetworkAwarePaperExample(t *testing.T) {
	// Section 3.2.1's worked example: six clients into two clusters.
	m := mergedTable("12.65.128.0/19", "24.48.2.0/23")
	l := logOf(
		[2]string{"12.65.147.94", "/a"},
		[2]string{"12.65.147.149", "/a"},
		[2]string{"12.65.146.207", "/b"},
		[2]string{"12.65.144.247", "/c"},
		[2]string{"24.48.3.87", "/a"},
		[2]string{"24.48.2.166", "/d"},
	)
	res := ClusterLog(l, NetworkAware{Table: m})
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(res.Clusters))
	}
	att, ok := res.Find(pfx("12.65.128.0/19"))
	if !ok || att.NumClients() != 4 || att.Requests != 4 {
		t.Fatalf("12.65.128.0/19 cluster: %+v ok=%v", att, ok)
	}
	if att.NumURLs() != 3 {
		t.Errorf("att cluster URLs = %d, want 3", att.NumURLs())
	}
	cable, ok := res.Find(pfx("24.48.2.0/23"))
	if !ok || cable.NumClients() != 2 {
		t.Fatalf("24.48.2.0/23 cluster: %+v ok=%v", cable, ok)
	}
	if res.Coverage() != 1.0 {
		t.Errorf("coverage = %g", res.Coverage())
	}
}

func TestSimpleApproach(t *testing.T) {
	// The paper's motivating failure: three hosts in distinct /28s that the
	// simple approach lumps into one /24 cluster.
	l := logOf(
		[2]string{"151.198.194.17", "/a"},
		[2]string{"151.198.194.34", "/a"},
		[2]string{"151.198.194.50", "/a"},
	)
	res := ClusterLog(l, Simple{})
	if len(res.Clusters) != 1 {
		t.Fatalf("simple approach must produce 1 cluster, got %d", len(res.Clusters))
	}
	if res.Clusters[0].Prefix != pfx("151.198.194.0/24") {
		t.Fatalf("cluster prefix = %v", res.Clusters[0].Prefix)
	}
	// The network-aware table with the true /28s separates them.
	m := mergedTable("151.198.194.16/28", "151.198.194.32/28", "151.198.194.48/28")
	res2 := ClusterLog(l, NetworkAware{Table: m})
	if len(res2.Clusters) != 3 {
		t.Fatalf("network-aware must produce 3 clusters, got %d", len(res2.Clusters))
	}
}

func TestClassful(t *testing.T) {
	l := logOf(
		[2]string{"9.1.2.3", "/a"},        // class A → 9.0.0.0/8
		[2]string{"9.200.2.3", "/a"},      // same /8
		[2]string{"151.198.194.17", "/a"}, // class B → 151.198.0.0/16
		[2]string{"203.1.2.3", "/a"},      // class C → 203.1.2.0/24
	)
	res := ClusterLog(l, Classful{})
	if len(res.Clusters) != 3 {
		t.Fatalf("classful clusters = %d, want 3", len(res.Clusters))
	}
	if _, ok := res.Find(pfx("9.0.0.0/8")); !ok {
		t.Error("missing class A cluster")
	}
	if _, ok := res.Find(pfx("151.198.0.0/16")); !ok {
		t.Error("missing class B cluster")
	}
	if _, ok := res.Find(pfx("203.1.2.0/24")); !ok {
		t.Error("missing class C cluster")
	}
	// Class D is not clusterable.
	if _, ok := (Classful{}).Cluster(addr("224.0.0.1")); ok {
		t.Error("class D must be unclusterable")
	}
}

func TestUnclusteredAccounting(t *testing.T) {
	m := mergedTable("12.65.128.0/19")
	l := logOf(
		[2]string{"12.65.147.94", "/a"},
		[2]string{"99.99.99.99", "/a"}, // no covering prefix
		[2]string{"99.99.99.99", "/b"},
	)
	res := ClusterLog(l, NetworkAware{Table: m})
	if len(res.Unclustered) != 1 || res.Unclustered[0] != addr("99.99.99.99") {
		t.Fatalf("Unclustered = %v", res.Unclustered)
	}
	if res.Coverage() != 0.5 {
		t.Fatalf("coverage = %g", res.Coverage())
	}
	if res.TotalRequests != 3 {
		t.Fatalf("TotalRequests = %d (unclustered requests still counted)", res.TotalRequests)
	}
	if res.NumClients() != 1 {
		t.Fatalf("NumClients = %d", res.NumClients())
	}
}

func TestUnspecifiedClientSkipped(t *testing.T) {
	l := logOf(
		[2]string{"0.0.0.0", "/a"},
		[2]string{"12.65.147.94", "/a"},
	)
	res := ClusterLog(l, Simple{})
	if res.TotalRequests != 1 || res.NumClients() != 1 {
		t.Fatalf("0.0.0.0 must be excluded entirely: %+v", res)
	}
}

func TestClusterOfAndBytes(t *testing.T) {
	l := logOf(
		[2]string{"1.2.3.4", "/a"},
		[2]string{"1.2.3.4", "/a"},
		[2]string{"1.2.3.9", "/b"},
	)
	res := ClusterLog(l, Simple{})
	c, ok := res.ClusterOf(addr("1.2.3.4"))
	if !ok || c.Clients[addr("1.2.3.4")] != 2 {
		t.Fatalf("ClusterOf: %+v ok=%v", c, ok)
	}
	if c.Bytes != 3000 {
		t.Fatalf("Bytes = %d", c.Bytes)
	}
	if _, ok := res.ClusterOf(addr("9.9.9.9")); ok {
		t.Error("unknown client must not resolve")
	}
}

func TestOrderings(t *testing.T) {
	// Three clusters: A(3 clients, 3 reqs), B(1 client, 10 reqs), C(2, 2).
	l := logOf(
		[2]string{"1.1.1.1", "/a"}, [2]string{"1.1.1.2", "/a"}, [2]string{"1.1.1.3", "/a"},
		[2]string{"2.2.2.1", "/a"}, [2]string{"2.2.2.1", "/b"}, [2]string{"2.2.2.1", "/c"},
		[2]string{"2.2.2.1", "/d"}, [2]string{"2.2.2.1", "/e"}, [2]string{"2.2.2.1", "/f"},
		[2]string{"2.2.2.1", "/g"}, [2]string{"2.2.2.1", "/h"}, [2]string{"2.2.2.1", "/i"},
		[2]string{"2.2.2.1", "/j"},
		[2]string{"3.3.3.1", "/a"}, [2]string{"3.3.3.2", "/a"},
	)
	res := ClusterLog(l, Simple{})
	byC := res.ByClientsDesc()
	if byC[0].Prefix != pfx("1.1.1.0/24") || byC[1].Prefix != pfx("3.3.3.0/24") || byC[2].Prefix != pfx("2.2.2.0/24") {
		t.Fatalf("ByClientsDesc order: %v %v %v", byC[0].Prefix, byC[1].Prefix, byC[2].Prefix)
	}
	byR := res.ByRequestsDesc()
	if byR[0].Prefix != pfx("2.2.2.0/24") {
		t.Fatalf("ByRequestsDesc first = %v", byR[0].Prefix)
	}
	// Aligned metric extraction.
	if got := ClientCounts(byC); got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("ClientCounts = %v", got)
	}
	if got := RequestCounts(byR); got[0] != 10 {
		t.Fatalf("RequestCounts = %v", got)
	}
	if got := URLCounts(byR); got[0] != 10 {
		t.Fatalf("URLCounts = %v", got)
	}
}

func TestThresholdBusy(t *testing.T) {
	// Clusters with requests 50, 30, 15, 5 (total 100). 70% target → the
	// first two (80 ≥ 70).
	var pairs [][2]string
	emit := func(base string, n int) {
		for i := 0; i < n; i++ {
			pairs = append(pairs, [2]string{base, "/u"})
		}
	}
	emit("1.1.1.1", 50)
	emit("2.2.2.2", 30)
	emit("3.3.3.3", 15)
	emit("4.4.4.4", 5)
	res := ClusterLog(logOf(pairs...), Simple{})
	th := res.ThresholdBusy(0.70)
	if len(th.Busy) != 2 || len(th.LessBusy) != 2 {
		t.Fatalf("busy=%d lessBusy=%d", len(th.Busy), len(th.LessBusy))
	}
	if th.Threshold != 30 {
		t.Fatalf("threshold = %d", th.Threshold)
	}
	// 100% keeps everything.
	all := res.ThresholdBusy(1.0)
	if len(all.Busy) != 4 || len(all.LessBusy) != 0 {
		t.Fatalf("100%%: busy=%d", len(all.Busy))
	}
}

func TestNetworkAwareSourceOf(t *testing.T) {
	m := bgp.NewMerged()
	m.Add(&bgp.Snapshot{Name: "B", Kind: bgp.SourceBGP,
		Entries: []bgp.Entry{{Prefix: pfx("12.65.128.0/19")}}})
	m.Add(&bgp.Snapshot{Name: "R", Kind: bgp.SourceNetworkDump,
		Entries: []bgp.Entry{{Prefix: pfx("99.0.0.0/8")}}})
	na := NetworkAware{Table: m}
	if k, ok := na.SourceOf(addr("12.65.147.94")); !ok || k != bgp.SourceBGP {
		t.Errorf("SourceOf BGP client = %v, %v", k, ok)
	}
	if k, ok := na.SourceOf(addr("99.1.2.3")); !ok || k != bgp.SourceNetworkDump {
		t.Errorf("SourceOf dump client = %v, %v", k, ok)
	}
	if _, ok := na.SourceOf(addr("55.5.5.5")); ok {
		t.Error("uncovered client must have no source")
	}
}

func TestFuncAdapter(t *testing.T) {
	// Func lets callers re-cluster under an arbitrary assignment; used by
	// the self-correction stage.
	f := Func{
		Label: "override",
		Fn: func(a netutil.Addr) (netutil.Prefix, bool) {
			if a == addr("1.2.3.4") {
				return pfx("99.0.0.0/8"), true
			}
			return netutil.Prefix{}, false
		},
	}
	if f.Name() != "override" {
		t.Fatalf("Name = %q", f.Name())
	}
	l := logOf([2]string{"1.2.3.4", "/a"}, [2]string{"5.6.7.8", "/a"})
	res := ClusterLog(l, f)
	if len(res.Clusters) != 1 || res.Clusters[0].Prefix != pfx("99.0.0.0/8") {
		t.Fatalf("clusters = %+v", res.Clusters)
	}
	if len(res.Unclustered) != 1 {
		t.Fatalf("unclustered = %v", res.Unclustered)
	}
}

func TestClusterRequestsMatchClientSums(t *testing.T) {
	// Invariant: a cluster's request total equals the sum of its
	// per-client counts, and the sum over clusters plus unclustered
	// requests equals the log total.
	l := logOf(
		[2]string{"1.1.1.1", "/a"}, [2]string{"1.1.1.1", "/b"},
		[2]string{"1.1.1.2", "/a"}, [2]string{"2.2.2.2", "/c"},
	)
	res := ClusterLog(l, Simple{})
	clusterTotal := 0
	for _, c := range res.Clusters {
		perClient := 0
		for _, n := range c.Clients {
			perClient += n
		}
		if perClient != c.Requests {
			t.Fatalf("cluster %v: per-client sum %d != requests %d", c.Prefix, perClient, c.Requests)
		}
		clusterTotal += c.Requests
	}
	if clusterTotal != res.TotalRequests {
		t.Fatalf("cluster total %d != log total %d", clusterTotal, res.TotalRequests)
	}
}

func TestDeterministicClusterOrder(t *testing.T) {
	l := logOf(
		[2]string{"9.9.9.9", "/a"},
		[2]string{"1.1.1.1", "/a"},
		[2]string{"5.5.5.5", "/a"},
	)
	res := ClusterLog(l, Simple{})
	for i := 1; i < len(res.Clusters); i++ {
		if netutil.ComparePrefix(res.Clusters[i-1].Prefix, res.Clusters[i].Prefix) >= 0 {
			t.Fatal("Clusters not in canonical prefix order")
		}
	}
}
