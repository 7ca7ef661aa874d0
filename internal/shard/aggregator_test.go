package shard

import (
	"context"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
)

// clusterProbes returns addresses straddling every /8-sharded range.
func clusterProbes(t *testing.T) []netutil.Addr {
	t.Helper()
	var addrs []netutil.Addr
	for _, s := range []string{
		"1.2.3.4", "63.255.0.1", "64.0.0.1", "100.50.25.12",
		"128.9.160.27", "200.1.2.3", "255.254.253.252",
	} {
		a, err := netutil.ParseAddr(s)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	return addrs
}

// TestBatchCtxTracePropagation proves the tentpole end to end inside
// one process: a client span's trace ID flows through BatchCtx, across
// real loopback HTTP via the X-Netcluster-Trace header, into every
// shard node's server-side spans — one TraceID over router.batch,
// router.shard, node.batch and node.table.
func TestBatchCtxTracePropagation(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 2, ASes: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}

	ctx, client := obsv.StartTraceSpan(context.Background(), "test.client")
	resp := c.Router.BatchCtx(ctx, clusterProbes(t))
	client.End()
	if len(resp.Degradation) != 0 {
		t.Fatalf("healthy cluster degraded: %v", resp.Degradation)
	}

	traceID := client.Context().TraceID
	spans := make(map[uint64]obsv.SpanRecord) // span ID -> record, this trace only
	byName := make(map[string][]obsv.SpanRecord)
	for _, rec := range obsv.DefaultRing.Snapshot() {
		if rec.TraceID == traceID {
			spans[rec.SpanID] = rec
			byName[rec.Name] = append(byName[rec.Name], rec)
		}
	}

	if n := len(byName["router.batch"]); n != 1 {
		t.Fatalf("%d router.batch spans in trace, want 1", n)
	}
	rb := byName["router.batch"][0]
	if rb.ParentID != client.Context().SpanID {
		t.Fatalf("router.batch parent %d, want client span %d", rb.ParentID, client.Context().SpanID)
	}
	if n := len(byName["router.shard"]); n != 2 {
		t.Fatalf("%d router.shard spans in trace, want 2 (one per shard)", n)
	}
	for _, rs := range byName["router.shard"] {
		if rs.ParentID != rb.SpanID {
			t.Fatalf("router.shard parent %d, want router.batch %d", rs.ParentID, rb.SpanID)
		}
	}
	if n := len(byName["node.batch"]); n != 2 {
		t.Fatalf("%d node.batch spans in trace, want 2 — header did not propagate", n)
	}
	for _, nb := range byName["node.batch"] {
		parent, ok := spans[nb.ParentID]
		if !ok || parent.Name != "router.shard" {
			t.Fatalf("node.batch parent %d is %q, want a router.shard span", nb.ParentID, parent.Name)
		}
	}
	if n := len(byName["node.table"]); n != 2 {
		t.Fatalf("%d node.table spans in trace, want 2", n)
	}
	for _, nt := range byName["node.table"] {
		if parent, ok := spans[nt.ParentID]; !ok || parent.Name != "node.batch" {
			t.Fatalf("node.table parent %d is %q, want node.batch", nt.ParentID, parent.Name)
		}
	}
}

// TestUntracedBatchSampling holds the lazy-span contract on the routed
// path. An untraced batch records no span unless the router's sampler
// picks it, one in obsv.RootSampleEvery, and then it records its whole
// local tree: router.batch, a router.shard per shard and, traced by the
// stream header, each node's node.batch and node.table. A node may sample
// an untraced request of its own, as a root with its child. No span ever
// reaches the ring without its parent, and every batch, built or not,
// feeds the <name>.count and <name>.ns series.
func TestUntracedBatchSampling(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 2, ASes: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	probes := clusterProbes(t)
	names := []string{"router.batch", "router.shard", "node.batch", "node.table"}
	counts := func() map[string]uint64 {
		m := make(map[string]uint64)
		for _, name := range names {
			m[name+".count"] = obsv.Default.Counter(name + ".count").Value()
			m[name+".ns"] = obsv.Default.Histogram(name + ".ns").Snapshot().Count
		}
		return m
	}
	// recorded returns this test's request spans that started after span
	// ID from, by span ID.
	recorded := func(from uint64) map[uint64]obsv.SpanRecord {
		recs := make(map[uint64]obsv.SpanRecord)
		for _, rec := range obsv.DefaultRing.Snapshot() {
			if rec.SpanID > from && slices.Contains(names, rec.Name) {
				recs[rec.SpanID] = rec
			}
		}
		return recs
	}
	lastSpan := func() (last uint64) {
		for _, rec := range obsv.DefaultRing.Snapshot() {
			last = max(last, rec.SpanID)
		}
		return last
	}

	before := counts()
	sampled := 0
	for i := 0; i < obsv.RootSampleEvery; i++ {
		from := lastSpan()
		if resp := c.Router.BatchCtx(context.Background(), probes); len(resp.Degradation) != 0 {
			t.Fatalf("healthy cluster degraded: %v", resp.Degradation)
		}
		recs := recorded(from)
		byName := make(map[string][]obsv.SpanRecord)
		for _, rec := range recs {
			byName[rec.Name] = append(byName[rec.Name], rec)
			if parent, ok := recs[rec.ParentID]; rec.ParentID != 0 && (!ok || parent.TraceID != rec.TraceID) {
				t.Fatalf("batch %d: %s span %d recorded without its parent %d", i, rec.Name, rec.SpanID, rec.ParentID)
			}
		}
		if len(byName["router.batch"]) == 0 {
			// Unsampled: the router built nothing, and what a node sampled
			// on its own is a root with its lookup child.
			if n := len(byName["router.shard"]); n != 0 {
				t.Fatalf("batch %d: %d router.shard spans under an unbuilt router.batch", i, n)
			}
			for _, nb := range byName["node.batch"] {
				if nb.ParentID != 0 {
					t.Fatalf("batch %d: node.batch parented to %d though the router traced nothing", i, nb.ParentID)
				}
			}
			if len(byName["node.table"]) != len(byName["node.batch"]) {
				t.Fatalf("batch %d: %d node.table spans for %d node.batch", i, len(byName["node.table"]), len(byName["node.batch"]))
			}
			continue
		}
		sampled++
		rb := byName["router.batch"][0]
		if len(byName["router.batch"]) != 1 || rb.ParentID != 0 {
			t.Fatalf("batch %d: router.batch spans %+v, want one root", i, byName["router.batch"])
		}
		tree := 0
		for _, rec := range recs {
			if rec.TraceID == rb.TraceID {
				tree++
			}
		}
		for _, rs := range byName["router.shard"] {
			if rs.ParentID != rb.SpanID {
				t.Fatalf("batch %d: router.shard parent %d, want router.batch %d", i, rs.ParentID, rb.SpanID)
			}
		}
		if len(byName["router.shard"]) != 2 || tree != 7 {
			t.Fatalf("batch %d: sampled tree holds %d spans (%d router.shard), want router.batch, 2 router.shard, 2 node.batch, 2 node.table",
				i, tree, len(byName["router.shard"]))
		}
	}
	if sampled != 1 {
		t.Fatalf("%d of %d untraced batches sampled, want exactly 1", sampled, obsv.RootSampleEvery)
	}
	after := counts()
	for _, name := range names {
		want := uint64(obsv.RootSampleEvery)
		if name != "router.batch" {
			want *= 2 // one per shard
		}
		for _, series := range []string{name + ".count", name + ".ns"} {
			if got := after[series] - before[series]; got != want {
				t.Errorf("%s moved by %d over %d batches, want %d", series, got, obsv.RootSampleEvery, want)
			}
		}
	}
}

// TestRouterBatchCompat: the no-context wrapper still works. Its batch is
// untraced: it roots a fresh trace when the router's sampler picks it and
// records no span otherwise, and never joins someone else's trace.
func TestRouterBatchCompat(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 2, ASes: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp := c.Router.BatchCtx(context.Background(), clusterProbes(t))
	if len(resp.Results) != len(clusterProbes(t)) {
		t.Fatalf("%d results for %d probes", len(resp.Results), len(clusterProbes(t)))
	}
}

// TestClusterMetricsFederation drives batches through the routed
// cluster and checks the /metrics/cluster page: parseable, per-shard
// labels on every member series, no duplicate series, nonzero
// cluster-wide quantiles, and the aggregator's own cluster gauges.
func TestClusterMetricsFederation(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 2, ASes: 120, Seed: 5, FederateEvery: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if resp := c.Router.BatchCtx(context.Background(), clusterProbes(t)); len(resp.Degradation) != 0 {
			t.Fatalf("degraded: %v", resp.Degradation)
		}
	}

	res, err := http.Get(c.RouterBase() + "/metrics/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics/cluster = %s", res.Status)
	}
	if ct := res.Header.Get("Content-Type"); ct != obsv.PrometheusContentType {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)

	for _, want := range []string{
		`{shard="0"}`,
		`{shard="1"}`,
		"netcluster_node_batch_ns_bucket{shard=\"0\",le=",
		"netcluster_cluster_shards 2",
		"netcluster_cluster_live_shards 2",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}

	// Cluster-wide quantiles derived from merged buckets must be real
	// numbers: batches ran, so the node batch latency p99 is > 0.
	var sawP99 bool
	seen := make(map[string]bool)
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		id, val := line[:sp], line[sp+1:]
		if seen[id] {
			t.Fatalf("duplicate series %q", id)
		}
		seen[id] = true
		if id == "netcluster_node_batch_ns_cluster_p99" {
			sawP99 = true
			if val == "0" {
				t.Fatalf("cluster p99 is zero after %d batches", 3)
			}
		}
	}
	if !sawP99 {
		t.Fatalf("no cluster p99 series in page:\n%s", page)
	}
}

// TestRouterReadyz: ready when shards answer, degraded-but-ready with
// one down, 503 with all down or draining.
func TestRouterReadyz(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 2, ASes: 120, Seed: 5, FederateEvery: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	get := func() (int, string) {
		t.Helper()
		res, err := http.Get(c.RouterBase() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, _ := io.ReadAll(res.Body)
		return res.StatusCode, string(body)
	}

	if code, body := get(); code != http.StatusOK || !strings.Contains(body, "ready shards=2/2") {
		t.Fatalf("healthy readyz = %d %q", code, body)
	}

	c.KillNode(0)
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, "degraded 1/2") {
		t.Fatalf("one-down readyz = %d %q", code, body)
	}

	c.KillNode(1)
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "no live shards") {
		t.Fatalf("all-down readyz = %d %q", code, body)
	}

	if err := c.ReviveNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.ReviveNode(1); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("revived readyz = %d", code)
	}

	c.Router.SetDraining(true)
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining readyz = %d %q", code, body)
	}
	c.Router.SetDraining(false)
}

// TestFollowerLagProbe: lag gauges rise while the feed advances without
// the follower, and return to zero after catch-up — measured through
// the /feed/status probe, not a delta fetch.
func TestFollowerLagProbe(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 1, ASes: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Advance the feed 5 generations without driving the follower.
	for i := 0; i < 5; i++ {
		c.Feed.Apply(c.ChurnGen.Next())
	}
	lag, err := c.Followers[0].Lag(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lag != 5 {
		t.Fatalf("probe lag = %d, want 5", lag)
	}
	snap := obsv.TakeSnapshot()
	if g := snap.Gauges["shard.feed.lag.generations"]; g != 5 {
		t.Fatalf("shard.feed.lag.generations = %d, want 5", g)
	}

	if err := c.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if lag, err = c.Followers[0].Lag(context.Background()); err != nil || lag != 0 {
		t.Fatalf("post-catch-up lag = %d err %v, want 0", lag, err)
	}
	if g := obsv.TakeSnapshot().Gauges["shard.feed.lag.generations"]; g != 0 {
		t.Fatalf("post-catch-up gauge = %d, want 0", g)
	}
}

// TestAggregatorFederatedSnapshot: the registry-shaped flattening
// carries per-member and merged series.
func TestAggregatorFederatedSnapshot(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 2, ASes: 120, Seed: 5, FederateEvery: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Router.BatchCtx(context.Background(), clusterProbes(t))

	agg := c.Router.agg
	agg.Refresh(context.Background())
	snap := agg.FederatedSnapshot()
	if snap.Gauges["cluster.shards"] != 2 || snap.Gauges["cluster.live_shards"] != 2 {
		t.Fatalf("cluster gauges: %v", snap.Gauges)
	}
	if _, ok := snap.Counters["cluster.s0.shard.node.batches"]; !ok {
		t.Fatalf("no per-member counter in federated snapshot")
	}
	if _, ok := snap.Counters["cluster.shard.node.batches"]; !ok {
		t.Fatalf("no merged counter in federated snapshot")
	}
	if _, ok := snap.Histograms["cluster.node.batch.ns"]; !ok {
		t.Fatalf("no merged histogram in federated snapshot")
	}
}

// Members returns the last refresh's per-member state.
func (a *Aggregator) Members() []MemberState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]MemberState(nil), a.state...)
}

// FederatedSnapshot flattens the last refresh into one registry-shaped
// snapshot: every member metric under cluster.s<label>.<name>, merged
// cluster-wide series under cluster.<name> (counters and gauges summed,
// histograms bucket-merged so their quantiles are true cluster
// quantiles), plus cluster.shards / cluster.live_shards gauges: the
// merge /metrics/cluster renders, in registry form for the tests.
func (a *Aggregator) FederatedSnapshot() obsv.Snapshot {
	state := a.Members()
	out := obsv.Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]obsv.HistogramSnapshot),
	}
	merged := make(map[string][]obsv.HistogramSnapshot)
	live := 0
	for _, st := range state {
		if st.Err != nil {
			continue
		}
		live++
		prefix := "cluster.s" + st.Label + "."
		for name, v := range st.Snap.Counters {
			out.Counters[prefix+name] = v
			out.Counters["cluster."+name] += v
		}
		for name, v := range st.Snap.Gauges {
			out.Gauges[prefix+name] = v
			out.Gauges["cluster."+name] += v
		}
		for name, h := range st.Snap.Histograms {
			out.Histograms[prefix+name] = h
			merged[name] = append(merged[name], h)
		}
	}
	for name, parts := range merged {
		out.Histograms["cluster."+name] = obsv.MergeHistogramSnapshots(parts...)
	}
	out.Gauges["cluster.shards"] = int64(len(state))
	out.Gauges["cluster.live_shards"] = int64(live)
	return out
}
