package netcluster_test

// End-to-end test of the cluster observability surface on real binaries:
// a compiler clusterd, two shard clusterds and a clusterrouter, proving
// (a) one TraceID spans the router's fan-out and every shard's
// server-side spans — checked by merging the three processes'
// /debug/trace dumps with tracecheck -merge -require-shared-trace,
// (b) the router's /metrics/cluster page is parseable Prometheus text
// with per-shard labels and nonzero cluster-wide quantiles, and
// (c) a slow shard's feed-lag gauge rises while churn outruns its poll
// cadence and returns to zero once a warm restart of the compiler turns
// churn off — the make cluster-obsv-smoke / CI lane acceptance path.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/netaware/netcluster/internal/obsv"
)

// obsvArtifact writes an artifact into $CLUSTER_OBSV_ARTIFACTS (the CI
// upload dir) or the test's temp dir, returning the path.
func obsvArtifact(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestClusterObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	artifacts := os.Getenv("CLUSTER_OBSV_ARTIFACTS")
	if artifacts == "" {
		artifacts = t.TempDir()
	} else if err := os.MkdirAll(artifacts, 0o755); err != nil {
		t.Fatal(err)
	}

	// The compiler drains to a snapshot, so the lag phase can pause the
	// feed by warm-restarting it with churn off.
	snapPath := filepath.Join(t.TempDir(), "compiler.nct")
	compiler := startDaemon(t, "clusterd",
		"-addr", "127.0.0.1:0",
		"-ases", "150",
		"-seed", "3",
		"-mean-batch", "8",
		"-churn-every", "100ms",
		"-feed-serve",
		"-snapshot-out", snapPath)

	// Shard 0 keeps up; shard 1 polls far slower than churn, so its
	// generation lag is real and visible between fetches.
	shard0 := startDaemon(t, "clusterd",
		"-addr", "127.0.0.1:0",
		"-feed", compiler.base,
		"-feed-poll", "100ms",
		"-shard-index", "0", "-shard-count", "2")
	shard1 := startDaemon(t, "clusterd",
		"-addr", "127.0.0.1:0",
		"-feed", compiler.base,
		"-feed-poll", "2500ms",
		"-shard-index", "1", "-shard-count", "2")
	router := startDaemon(t, "clusterrouter",
		"-addr", "127.0.0.1:0",
		"-shards", shard0.base+","+shard1.base,
		"-federate-every", "100ms")

	var sb strings.Builder
	for _, a := range []string{
		"1.2.3.4", "12.65.147.94", "63.255.0.1", "64.0.0.1",
		"100.50.25.12", "128.9.160.27", "200.1.2.3", "255.254.253.252",
	} {
		sb.WriteString(a + "\n")
	}
	probes := sb.String()

	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// ---- Phase 1: trace propagation across processes ----------------

	// Batches rooted at the router: each one should stitch router and
	// both shards into a single trace.
	for i := 0; i < 3; i++ {
		var resp wireRouterBatch
		postBatch(t, router.base, probes, &resp)
		if len(resp.Degradation) != 0 {
			t.Fatalf("healthy cluster degraded: %v", resp.Degradation)
		}
	}
	// One batch carrying a caller-supplied trace header: its (known)
	// TraceID must surface in all three processes' dumps, proving the
	// full client → router → shard propagation chain deterministically.
	const clientTraceID = uint64(0xdeadbeef0001)
	req, err := http.NewRequest(http.MethodPost, router.base+"/cluster", strings.NewReader(probes))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obsv.TraceHeader,
		fmt.Sprintf("00-%032x-%016x-01", clientTraceID, uint64(0xc11e47)))
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("traced batch = %s", res.Status)
	}

	dumps := make([][]byte, 0, 3)
	var dumpPaths []string
	for _, d := range []struct {
		name string
		base string
	}{{"router", router.base}, {"shard0", shard0.base}, {"shard1", shard1.base}} {
		body, _ := httpGetRetry(t, d.base+"/debug/trace")
		if _, err := obsv.ValidateChromeTrace([]byte(body)); err != nil {
			t.Fatalf("%s /debug/trace invalid: %v", d.name, err)
		}
		dumps = append(dumps, []byte(body))
		dumpPaths = append(dumpPaths, obsvArtifact(t, artifacts, d.name+".json", []byte(body)))
	}

	shared, err := obsv.SharedChromeTraceIDs(dumps)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) == 0 {
		t.Fatal("no TraceID spans router + both shards — header propagation broken")
	}
	found := false
	for _, id := range shared {
		if id == clientTraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("caller-supplied TraceID %d not among shared ids %v", clientTraceID, shared)
	}

	// The shipped checker agrees and produces the merged artifact CI
	// uploads.
	mergedPath := filepath.Join(artifacts, "merged.json")
	out, _ := run(t, "tracecheck", append([]string{
		"-merge", mergedPath, "-require-shared-trace"}, dumpPaths...)...)
	if !strings.Contains(out, "span all 3 inputs") {
		t.Fatalf("tracecheck merge output: %q", out)
	}

	// ---- Phase 2: federated metrics ---------------------------------

	page, hdr := httpGetRetry(t, router.base+"/metrics/cluster")
	obsvArtifact(t, artifacts, "metrics-cluster.txt", []byte(page))
	if ct := hdr.Get("Content-Type"); ct != obsv.PrometheusContentType {
		t.Errorf("/metrics/cluster Content-Type = %q", ct)
	}
	series := parsePrometheusText(t, page) // fails on duplicates/undeclared families

	if series["netcluster_cluster_shards"] != 2 || series["netcluster_cluster_live_shards"] != 2 {
		t.Errorf("cluster membership gauges wrong: shards=%v live=%v",
			series["netcluster_cluster_shards"], series["netcluster_cluster_live_shards"])
	}
	for _, shardLabel := range []string{"0", "1"} {
		key := fmt.Sprintf("netcluster_clusterd_batches_total{shard=%q}", shardLabel)
		if series[key] == 0 {
			t.Errorf("series %s missing or zero after routed batches", key)
		}
	}
	if v := series["netcluster_clusterd_batch_ns_cluster_p99"]; v <= 0 {
		t.Errorf("cluster-wide batch latency p99 = %v, want > 0", v)
	}
	var labeledBuckets bool
	for key := range series {
		if strings.HasPrefix(key, "netcluster_clusterd_batch_ns_bucket{shard=") {
			labeledBuckets = true
			break
		}
	}
	if !labeledBuckets {
		t.Error("no per-shard histogram buckets on the federated page")
	}

	// Router readiness folds the same aggregator state.
	readyRes, err := http.Get(router.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readyBody, _ := io.ReadAll(readyRes.Body)
	readyRes.Body.Close()
	if readyRes.StatusCode != http.StatusOK || !strings.Contains(string(readyBody), "ready shards=2/2") {
		t.Errorf("router readyz = %d %q", readyRes.StatusCode, readyBody)
	}

	// ---- Phase 3: follower lag SLO ----------------------------------

	// Shard 1's poll (2.5 s) is far slower than churn (100 ms), so its
	// lag monitor must report a growing generation distance in between
	// fetches, surfaced through /readyz.
	shardLag := func(base string) uint64 {
		var r struct {
			FeedLag *uint64 `json:"feed_lag_generations"`
		}
		getJSON(t, base+"/readyz", &r)
		if r.FeedLag == nil {
			t.Fatalf("follower %s readyz has no feed_lag_generations", base)
		}
		return *r.FeedLag
	}
	waitFor("slow shard's feed lag to rise", func() bool { return shardLag(shard1.base) >= 2 })

	// Pause churn the way any tunable changes: drain the compiler and
	// warm-start it on the same address with churn off. Its feed resumes
	// at the old head; the slow shard, behind it, resyncs, and the gauge
	// must settle back to zero.
	stopDaemon(t, compiler)
	compiler = startDaemon(t, "clusterd",
		"-addr", strings.TrimPrefix(compiler.base, "http://"),
		"-table-snapshot", snapPath,
		"-churn-every", "0",
		"-feed-serve")
	zeroStreak := 0
	waitFor("slow shard's feed lag to return to zero", func() bool {
		if shardLag(shard1.base) == 0 {
			zeroStreak++
		} else {
			zeroStreak = 0
		}
		if zeroStreak > 0 && zeroStreak < 3 {
			time.Sleep(650 * time.Millisecond) // > one lag-monitor period
		}
		return zeroStreak >= 3
	})

	// The whole cluster agrees once caught up — observability did not
	// perturb correctness.
	waitFor("post-pause cluster equivalence", func() bool {
		return routerAgrees(t, router.base, compiler.base, probes)
	})

	readyJSON, _ := json.Marshal(map[string]any{"shared_trace_ids": shared})
	obsvArtifact(t, artifacts, "summary.json", readyJSON)
}
