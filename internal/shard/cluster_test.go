package shard_test

// The cluster tests stand up whole clusters of production nodes
// (internal/node, which imports this package) behind a Router, so they
// run as an external test package.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/node"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/shard"
)

// clusterArtifacts dumps the flight-recorder tail when the test failed
// and CLUSTER_SMOKE_ARTIFACTS names a directory (the cluster-smoke CI
// job sets it and uploads the directory on failure).
func clusterArtifacts(t *testing.T) {
	t.Helper()
	dir := os.Getenv("CLUSTER_SMOKE_ARTIFACTS")
	if dir == "" || !t.Failed() {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifacts: %v", err)
		return
	}
	if err := obsv.WriteTraceFile(filepath.Join(dir, t.Name()+"-flight.json")); err != nil {
		t.Logf("artifacts: flight recorder: %v", err)
	}
}

// canon renders one clustering answer in the canonical comparison form.
// Shard annotations are deliberately excluded: equivalence is about the
// answers, not about who produced them.
func canon(r shard.LookupResult) string {
	return fmt.Sprintf("%s %v %s %s gen=%d", r.Addr, r.Clustered, r.Prefix, r.Kind, r.Generation)
}

// probeSet draws n addresses, half uniform over the whole space and
// half inside the low /3 (where the synthetic world concentrates), so
// batches mix hits, misses and shard boundaries.
func probeSet(rng *rand.Rand, n int) []netutil.Addr {
	addrs := make([]netutil.Addr, n)
	for i := range addrs {
		if i%2 == 0 {
			addrs[i] = netutil.Addr(rng.Uint32())
		} else {
			addrs[i] = netutil.Addr(rng.Uint32() >> 3)
		}
	}
	return addrs
}

// routedBatch sends addrs through the router's HTTP surface.
func routedBatch(t *testing.T, base string, addrs []netutil.Addr) *shard.RouterBatchResponse {
	t.Helper()
	var b strings.Builder
	for _, a := range addrs {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	resp, err := http.Post(base+"/cluster", "text/plain", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router POST /cluster = %s", resp.Status)
	}
	var out shard.RouterBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// referenceBatch resolves addrs against the compiler node's full table —
// the single-node answer the cluster must reproduce byte for byte.
func referenceBatch(c *node.Cluster, addrs []netutil.Addr) []shard.LookupResult {
	matches, gen := c.Reference().LookupBatch(addrs, nil)
	out := make([]shard.LookupResult, len(addrs))
	for i, a := range addrs {
		out[i] = shard.ResolveMatch(a, matches[i], gen)
	}
	return out
}

// TestClusterEquivalence is the tentpole proof: a 3-shard cluster
// behind the router answers byte-identically to the single full-table
// node across 100 churn generations, 10k probes per generation, while
// every node's generation advances in lockstep.
func TestClusterEquivalence(t *testing.T) {
	defer clusterArtifacts(t)
	c, err := node.NewCluster(node.ClusterConfig{Shards: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		generations = 100
		probes      = 10_000
	)
	rng := rand.New(rand.NewSource(42))
	for g := 1; g <= generations; g++ {
		if err := c.Step(); err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		// Lockstep: every follower at the same generation as the feed.
		for i, f := range c.Followers {
			if got := f.Table.Generation(); got != uint64(g) {
				t.Fatalf("generation %d: shard %d at %d", g, i, got)
			}
		}
		if ref := c.Reference().Generation(); ref != uint64(g) {
			t.Fatalf("generation %d: reference at %d", g, ref)
		}

		addrs := probeSet(rng, probes)
		want := referenceBatch(c, addrs)
		got := routedBatch(t, c.RouterBase(), addrs)
		if len(got.Degradation) != 0 {
			t.Fatalf("generation %d: healthy cluster degraded: %v", g, got.Degradation)
		}
		if len(got.Results) != len(want) {
			t.Fatalf("generation %d: %d results, want %d", g, len(got.Results), len(want))
		}
		for i := range want {
			if w, g2 := canon(want[i]), canon(got.Results[i].LookupResult); w != g2 {
				t.Fatalf("generation %d probe %d: cluster %q != single-node %q", g, i, g2, w)
			}
		}
	}
}

// TestClusterKillNode kills one shard mid-churn: the batch must degrade
// to live-shard answers plus an explicit error map — never a wrong
// answer — and the revived node must catch back up into lockstep.
func TestClusterKillNode(t *testing.T) { killNode(t, false) }

// TestClusterKillNodeWarmPool is the same with the router holding open
// batch streams to the node when it dies. http.Server.Close does not
// reach them: a killed node that kept answering on them would serve the
// generation it died at as healthy.
func TestClusterKillNodeWarmPool(t *testing.T) { killNode(t, true) }

func killNode(t *testing.T, warm bool) {
	defer clusterArtifacts(t)
	c, err := node.NewCluster(node.ClusterConfig{Shards: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(7))
	for g := 0; g < 50; g++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	addrs := probeSet(rng, 2_000)
	if warm {
		for i := 0; i < 3; i++ {
			if got := routedBatch(t, c.RouterBase(), addrs); len(got.Degradation) != 0 {
				t.Fatalf("healthy cluster degraded: %v", got.Degradation)
			}
		}
	}
	c.KillNode(1)
	for g := 0; g < 10; g++ { // the cluster keeps churning around the corpse
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}

	want := referenceBatch(c, addrs)
	got := routedBatch(t, c.RouterBase(), addrs)
	if len(got.Degradation) != 1 || got.Degradation["1"] == "" {
		t.Fatalf("Degradation = %v, want exactly shard 1", got.Degradation)
	}
	live := 0
	for i, r := range got.Results {
		if r.Shard == 1 {
			if r.Error == "" || r.Clustered {
				t.Fatalf("dead-shard row %d = %+v, want error + zero answer", i, r)
			}
			continue
		}
		live++
		if w, g2 := canon(want[i]), canon(r.LookupResult); w != g2 {
			t.Fatalf("live row %d: cluster %q != single-node %q", i, g2, w)
		}
	}
	if live == 0 {
		t.Fatal("no live-shard rows in the probe set")
	}

	// Revival: the follower was not driven while dead, so it re-enters
	// through catch-up and the whole cluster must be equivalent again.
	if err := c.ReviveNode(1); err != nil {
		t.Fatal(err)
	}
	want = referenceBatch(c, addrs)
	got = routedBatch(t, c.RouterBase(), addrs)
	if len(got.Degradation) != 0 {
		t.Fatalf("revived cluster still degraded: %v", got.Degradation)
	}
	for i := range want {
		if w, g2 := canon(want[i]), canon(got.Results[i].LookupResult); w != g2 {
			t.Fatalf("post-revival row %d: cluster %q != single-node %q", i, g2, w)
		}
	}
}

// TestClusterWarmStartJoin covers the two late-join paths: a node
// joining mid-stream from the snapshot endpoint, and a clusterd-style
// warm start from a saved .nct + sidecar that then follows the feed.
func TestClusterWarmStartJoin(t *testing.T) {
	defer clusterArtifacts(t)
	c, err := node.NewCluster(node.ClusterConfig{Shards: 2, MaxLog: 16, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for g := 0; g < 30; g++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// Late joiner: snapshot catch-up must land it exactly at the head.
	fl, err := shard.Join(c.FeedBase(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Seq() != c.Feed.Head() || fl.Table.Generation() != c.Reference().Generation() {
		t.Fatalf("joiner at seq %d gen %d, feed head %d", fl.Seq(), fl.Table.Generation(), c.Feed.Head())
	}

	// Warm start from disk: save the joiner's table + sidecar, reload it,
	// then follow the live feed across a retention-window gap (MaxLog 16
	// vs 20 published deltas) to force the 410 → resync path too.
	dir := t.TempDir()
	path := filepath.Join(dir, "warm.nct")
	if err := bgp.SaveTable(path, fl.Table.Load()); err != nil {
		t.Fatal(err)
	}
	if err := bgp.SaveTableMeta(path, bgp.TableMeta{Generation: fl.Table.Generation(), Seq: fl.Seq()}); err != nil {
		t.Fatal(err)
	}

	for g := 0; g < 20; g++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}

	tf, err := bgp.OpenTable(path)
	if err != nil {
		t.Fatal(err)
	}
	meta, ok, err := bgp.LoadTableMeta(path)
	if err != nil || !ok {
		t.Fatalf("sidecar = %v, %v", ok, err)
	}
	warm := shard.RejoinFromSnapshot(c.FeedBase(), nil, tf.Table(), meta, nil)
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	for {
		n, err := warm.Step(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 && warm.Seq() == c.Feed.Head() {
			break
		}
	}
	if warm.Table.Generation() != c.Reference().Generation() {
		t.Fatalf("warm-started node at gen %d, reference at %d", warm.Table.Generation(), c.Reference().Generation())
	}

	// Same answers as the reference over a probe sweep.
	rng := rand.New(rand.NewSource(11))
	addrs := probeSet(rng, 2_000)
	wantM, wantGen := c.Reference().LookupBatch(addrs, nil)
	gotM, gotGen := warm.Table.LookupBatch(addrs, nil)
	if wantGen != gotGen {
		t.Fatalf("generation %d != %d", gotGen, wantGen)
	}
	for i := range addrs {
		if wantM[i] != gotM[i] {
			t.Fatalf("probe %s: warm %+v != reference %+v", addrs[i], gotM[i], wantM[i])
		}
	}
}
