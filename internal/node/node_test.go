package node

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
)

// getJSON decodes GET url's body into v and returns the status.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

// probes spreads n addresses over the whole address space, so a routed
// batch reaches every shard.
func probes(n int) []netutil.Addr {
	addrs := make([]netutil.Addr, n)
	for i := range addrs {
		addrs[i] = netutil.Addr(uint32(i) * 2654435761)
	}
	return addrs
}

// TestReadyzReportsOwnFollowerLag: two followers in one process stand at
// different stream positions, and each node's /readyz reports its own
// follower's lag, not whichever follower last wrote the process-wide
// gauge.
func TestReadyzReportsOwnFollowerLag(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 2, ASes: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		c.Feed.Apply(c.ChurnGen.Next())
	}
	// Shard 1 measures its lag, then shard 0 catches up: the gauge's last
	// writer says 0.
	if lag, err := c.Followers[1].Lag(context.Background()); err != nil || lag != 5 {
		t.Fatalf("shard 1 lag = %d, %v; want 5", lag, err)
	}
	for {
		n, err := c.Followers[0].Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if g := obsv.TakeSnapshot().Gauges["shard.feed.lag.generations"]; g != 0 {
		t.Fatalf("shard.feed.lag.generations = %d after shard 0 caught up, want 0", g)
	}
	for i, want := range []uint64{0, 5} {
		var ready struct {
			FeedLag *uint64 `json:"feed_lag_generations"`
		}
		if code := getJSON(t, c.NodeBase(i)+"/readyz", &ready); code != http.StatusOK || ready.FeedLag == nil {
			t.Fatalf("shard %d /readyz = %d with no feed lag", i, code)
		}
		if *ready.FeedLag != want {
			t.Fatalf("shard %d /readyz reports feed lag %d, want %d", i, *ready.FeedLag, want)
		}
	}
}

// TestRoutedAdmissionRefusalDegrades: a shard node's admission control
// reaches the router. With every admission slot held by a batch still
// sending its body, the shard refuses the router's batch with 503, which
// the router reports as that shard's degradation; once the slots free,
// the same batch answers clean.
func TestRoutedAdmissionRefusalDegrades(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 2, ASes: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.nodeSrvs[1].node

	slots := DefaultTunables().MaxInflight
	feeds := make([]*io.PipeWriter, slots)
	held := make(chan int, slots)
	for i := range feeds {
		slow, feed := io.Pipe()
		feeds[i] = feed
		go func() {
			rec := httptest.NewRecorder()
			n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster", slow))
			held <- rec.Code
		}()
		feed.Write([]byte("10.0.0.1\n")) // returns once the handler is reading: a slot is taken
	}

	addrs := probes(64)
	rejected := batchRejected.Value()
	resp := c.Router.BatchCtx(context.Background(), addrs)
	if want := "503 Service Unavailable: batch capacity exhausted, retry later"; len(resp.Degradation) != 1 || resp.Degradation["1"] != want {
		t.Fatalf("degradation %v, want shard 1: %q", resp.Degradation, want)
	}
	for i, r := range resp.Results {
		if (r.Shard == 1) != (r.Error != "") {
			t.Fatalf("row %d = %+v: only shard 1's rows may carry an error", i, r)
		}
	}
	if got := batchRejected.Value() - rejected; got != 1 {
		t.Fatalf("clusterd.batch.rejected moved by %d, want 1", got)
	}

	for _, feed := range feeds {
		feed.Close()
	}
	for range feeds {
		if code := <-held; code != http.StatusOK {
			t.Fatalf("held batch answered %d", code)
		}
	}
	if resp := c.Router.BatchCtx(context.Background(), addrs); len(resp.Degradation) != 0 {
		t.Fatalf("degraded after the slots freed: %v", resp.Degradation)
	}
}

// TestRoutedBusyCountsShardAddresses: every address the router sends a
// shard lands in that node's busy-cluster accounting, and no other.
func TestRoutedBusyCountsShardAddresses(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Shards: 3, ASes: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addrs := probes(300)
	for round := 0; round < 2; round++ {
		if resp := c.Router.BatchCtx(context.Background(), addrs); len(resp.Degradation) != 0 {
			t.Fatalf("healthy cluster degraded: %v", resp.Degradation)
		}
	}
	owned := make([]uint64, 3)
	for _, a := range addrs {
		owned[c.Map.ShardFor(a)] += 2
	}
	for i, want := range owned {
		var busy struct{ Requests uint64 }
		if code := getJSON(t, c.NodeBase(i)+"/busy", &busy); code != http.StatusOK || busy.Requests != want || want == 0 {
			t.Fatalf("shard %d /busy = %d, %d requests; want %d", i, code, busy.Requests, want)
		}
	}
}
