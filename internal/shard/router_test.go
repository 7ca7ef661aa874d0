package shard

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/faultnet"
	"github.com/netaware/netcluster/internal/netutil"
)

// routerFixture stands up a 3-shard router over hand-built single-shard
// tables: shard 0 owns 10/8, shard 1 owns 100/8, shard 2 owns 200/8
// (NewMap(3): blocks 0-84 / 85-169 / 170-255).
type routerFixture struct {
	m      *Map
	router *Router
	srvs   []*httptest.Server
	tables []*churn.Table
}

// fixtureTables builds the three single-prefix shard tables.
func fixtureTables() []*churn.Table {
	var tables []*churn.Table
	for _, pfx := range []string{"10.0.0.0/8", "100.0.0.0/8", "200.0.0.0/8"} {
		mg := bgp.NewMerged()
		mg.Add(&bgp.Snapshot{Name: "AADS", Kind: bgp.SourceBGP, Entries: []bgp.Entry{
			{Prefix: netutil.MustParsePrefix(pfx)},
		}})
		tables = append(tables, churn.New(mg))
	}
	return tables
}

func newRouterFixture(t *testing.T, client *http.Client, timeout time.Duration) *routerFixture {
	t.Helper()
	fx := &routerFixture{m: NewMap(3), tables: fixtureTables()}
	for i, table := range fx.tables {
		srv := httptest.NewServer((&NodeServer{Table: table, ShardID: i}).Handler())
		t.Cleanup(srv.Close)
		fx.srvs = append(fx.srvs, srv)
		fx.m.Shards[i].Addr = srv.URL
	}
	rt, err := NewRouter(RouterConfig{Map: fx.m, Client: client, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	fx.router = rt
	return fx
}

// newLoopbackRouter stands the same three shards up behind a loopback
// transport instead of sockets.
func newLoopbackRouter(t testing.TB) (*Router, loopback, []*churn.Table) {
	t.Helper()
	m, nodes, tables := NewMap(3), loopback{}, fixtureTables()
	for i, table := range tables {
		host := "shard" + strconv.Itoa(i)
		nodes[host] = &loopNode{handler: (&NodeServer{Table: table, ShardID: i}).Handler()}
		m.Shards[i].Addr = "http://" + host
	}
	rt, err := NewRouter(RouterConfig{Map: m, Client: &http.Client{Transport: nodes}})
	if err != nil {
		t.Fatal(err)
	}
	return rt, nodes, tables
}

// fixtureOracle is the single-node answer to addr: the three tables hold
// disjoint prefixes, so the owning shard's table is the whole truth.
func fixtureOracle(tables []*churn.Table, m *Map, addr netutil.Addr) LookupResult {
	table := tables[m.ShardFor(addr)]
	match, _ := table.Lookup(addr)
	return ResolveMatch(addr, match, table.Generation())
}

func postBatch(t *testing.T, client *http.Client, base string, addrs []string) *RouterBatchResponse {
	t.Helper()
	resp, err := client.Post(base+"/cluster", "text/plain", strings.NewReader(strings.Join(addrs, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /cluster = %s", resp.Status)
	}
	var out RouterBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestRouterMergesInInputOrder(t *testing.T) {
	fx := newRouterFixture(t, nil, 0)
	srv := httptest.NewServer(fx.router.Handler())
	defer srv.Close()

	// Interleave shards so any grouping bug scrambles the order.
	addrs := []string{
		"200.1.1.1", "10.1.1.1", "100.1.1.1", "200.2.2.2", "10.2.2.2", "99.99.99.99",
	}
	out := postBatch(t, srv.Client(), srv.URL, addrs)
	if len(out.Results) != len(addrs) {
		t.Fatalf("%d results for %d addrs", len(out.Results), len(addrs))
	}
	if len(out.Degradation) != 0 {
		t.Fatalf("healthy cluster degraded: %v", out.Degradation)
	}
	wantShard := []int{2, 0, 1, 2, 0, 1}
	wantClustered := []bool{true, true, true, true, true, false}
	for i, r := range out.Results {
		if r.Addr != addrs[i] {
			t.Fatalf("result %d is %s, want %s (order scrambled)", i, r.Addr, addrs[i])
		}
		if r.Shard != wantShard[i] || r.Clustered != wantClustered[i] || r.Error != "" {
			t.Fatalf("result %d = %+v, want shard %d clustered=%v", i, r, wantShard[i], wantClustered[i])
		}
	}
	// 99.99.99.99 is in shard 1's range but matches nothing there.
	if out.Results[5].Prefix != "" {
		t.Fatalf("unclustered row carries prefix %q", out.Results[5].Prefix)
	}
}

func TestRouterPartialDegradation(t *testing.T) {
	fx := newRouterFixture(t, nil, time.Second)
	// Shard 1 dies mid-deployment.
	fx.srvs[1].Close()
	srv := httptest.NewServer(fx.router.Handler())
	defer srv.Close()

	addrs := []string{"10.1.1.1", "100.1.1.1", "200.1.1.1", "100.2.2.2"}
	out := postBatch(t, srv.Client(), srv.URL, addrs)

	// The dead shard is reported explicitly, the batch itself succeeds.
	if len(out.Degradation) != 1 || out.Degradation["1"] == "" {
		t.Fatalf("Degradation = %v, want exactly shard 1", out.Degradation)
	}
	for i, r := range out.Results {
		owned := r.Shard == 1
		if owned && (r.Error == "" || r.Clustered) {
			t.Fatalf("dead-shard row %d = %+v, want error + zero answer", i, r)
		}
		if !owned && (r.Error != "" || !r.Clustered) {
			t.Fatalf("live-shard row %d = %+v, want clean answer", i, r)
		}
	}
	// Generation comes from live shards only.
	if out.Generation != 0 || out.MapVersion != 1 {
		t.Fatalf("generation %d, map version %d", out.Generation, out.MapVersion)
	}
	for _, rep := range out.Shards {
		if (rep.ID == 1) != (rep.Error != "") {
			t.Fatalf("shard report %+v", rep)
		}
	}
}

// faultTransport injects faults only on requests to one target host, so
// the router sees a partitioned shard while the rest of the cluster
// stays healthy — the faultnet-backed version of the one-shard-down
// contract.
type faultTransport struct {
	host    string
	faulty  http.RoundTripper
	healthy http.RoundTripper
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == ft.host {
		return ft.faulty.RoundTrip(req)
	}
	return ft.healthy.RoundTrip(req)
}

// fixtureProbes draws n addresses per shard around the fixture's three
// prefixes: mostly hits, some misses in the same /8 ranges.
func fixtureProbes(n int) []netutil.Addr {
	rng := rand.New(rand.NewSource(3))
	var addrs []netutil.Addr
	for i := 0; i < n; i++ {
		for _, block := range []uint32{10, 100, 200} {
			if i%5 == 4 {
				block++ // same shard, no covering prefix
			}
			addrs = append(addrs, netutil.Addr(block<<24|rng.Uint32()>>8))
		}
	}
	return addrs
}

// checkDegraded holds one routed answer to the degrade-never-lie
// contract with shard bad failing: the batch says so, bad's rows carry
// the error and a zero answer, and every other row is the single-node
// oracle's.
func checkDegraded(t *testing.T, out *RouterBatchResponse, tables []*churn.Table, m *Map, addrs []netutil.Addr, bad int) {
	t.Helper()
	key := strconv.Itoa(bad)
	if len(out.Degradation) != 1 || out.Degradation[key] == "" {
		t.Fatalf("Degradation = %v, want exactly shard %d", out.Degradation, bad)
	}
	if len(out.Results) != len(addrs) {
		t.Fatalf("%d rows for %d addresses", len(out.Results), len(addrs))
	}
	for i, r := range out.Results {
		if r.Shard != m.ShardFor(addrs[i]) {
			t.Fatalf("row %d attributed to shard %d, want %d", i, r.Shard, m.ShardFor(addrs[i]))
		}
		if r.Shard == bad {
			want := RouterResult{LookupResult: LookupResult{Addr: addrs[i].String()}, Shard: bad, Error: out.Degradation[key]}
			if r != want {
				t.Fatalf("failed-shard row %d = %+v, want %+v", i, r, want)
			}
			continue
		}
		if want := fixtureOracle(tables, m, addrs[i]); r.LookupResult != want || r.Error != "" {
			t.Fatalf("live row %d = %+v, want the oracle's %+v", i, r, want)
		}
	}
	for _, rep := range out.Shards {
		if (rep.ID == bad) != (rep.Error != "") {
			t.Fatalf("shard report %+v", rep)
		}
	}
}

func TestRouterDegradationUnderFaultnet(t *testing.T) {
	// 256 addresses per shard: faultnet's corruption flips one bit per 64
	// bytes, so shard 2's 1,552-byte answer takes two dozen flips. The
	// frame carries no checksum — that is TCP's job — but nearly every
	// bit of it is checked (columns, lengths, and that each prefix covers
	// the address it answers), so that many flips cannot all land on the
	// few that are not.
	addrs := fixtureProbes(256)
	for _, tc := range []struct {
		name    string
		profile faultnet.Profile
	}{
		{"drop", faultnet.Profile{Seed: 1, Outbound: faultnet.Faults{Drop: 1}}},
		{"reset", faultnet.Profile{Seed: 1, Outbound: faultnet.Faults{Reset: 1}}},
		{"truncate", faultnet.Profile{Seed: 1, Inbound: faultnet.Faults{Truncate: 1}}},
		{"corrupt", faultnet.Profile{Seed: 1, Inbound: faultnet.Faults{Corrupt: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newRouterFixture(t, nil, 0)
			inj := faultnet.New(tc.profile)
			client := &http.Client{Transport: &faultTransport{
				host:    strings.TrimPrefix(fx.srvs[2].URL, "http://"),
				faulty:  inj.RoundTripper(nil),
				healthy: http.DefaultTransport,
			}}
			rt, err := NewRouter(RouterConfig{Map: fx.m, Client: client, Timeout: time.Second})
			if err != nil {
				t.Fatal(err)
			}

			degraded := routerDegraded.Value()
			out := rt.Batch(addrs)
			checkDegraded(t, out, fx.tables, fx.m, addrs, 2)
			if got := routerDegraded.Value() - degraded; got != 1 {
				t.Fatalf("shard.router.degraded_batches moved by %d, want 1", got)
			}
			if st := inj.Stats(); st.Ops == 0 {
				t.Fatal("injector never saw the partitioned shard's traffic")
			}
		})
	}
}

// TestRouterRejectsBadFrames hands the router one hand-built bad answer
// per rejection rule from shard 1 and holds the routed JSON to the
// degrade-never-lie contract each time.
func TestRouterRejectsBadFrames(t *testing.T) {
	rt, nodes, tables := newLoopbackRouter(t)
	m := rt.Map()
	addrs := fixtureProbes(8)
	var body []byte
	for _, a := range addrs {
		body = append(a.Append(body), '\n')
	}
	// Shard 1's frame holds 8 rows; row 0 answers a hit in 100.0.0.0/8.
	const rows = 8
	bits, kind := responseHeaderLen+4*rows, responseHeaderLen+5*rows
	declare := func(resp *http.Response, n int) {
		resp.ContentLength = int64(n)
		resp.Header.Set("Content-Length", strconv.Itoa(n))
	}

	for _, tc := range []struct {
		name   string
		tamper func(resp *http.Response, frame []byte) []byte
	}{
		{"wrong magic", func(_ *http.Response, f []byte) []byte { f[0] ^= 0xff; return f }},
		{"wrong count", func(_ *http.Response, f []byte) []byte { f[4]++; return f }},
		{"one row short", func(resp *http.Response, f []byte) []byte {
			matches, gen, err := DecodeResponseFrame(f, rows, nil)
			if err != nil {
				t.Fatal(err)
			}
			f = AppendResponseFrame(nil, gen, matches[:rows-1])
			declare(resp, len(f))
			return f
		}},
		{"bits 33", func(_ *http.Response, f []byte) []byte { f[bits] = 33; return f }},
		{"host bits set", func(_ *http.Response, f []byte) []byte { f[responseHeaderLen] |= 1; return f }},
		{"unknown kind", func(_ *http.Response, f []byte) []byte { f[kind] = 2; return f }},
		{"miss with kind", func(_ *http.Response, f []byte) []byte {
			f[bits], f[kind] = 0, 1
			copy(f[responseHeaderLen:], "\x00\x00\x00\x00")
			return f
		}},
		{"prefix of another address", func(_ *http.Response, f []byte) []byte { f[responseHeaderLen+3] = 99; return f }},
		{"trailing byte", func(_ *http.Response, f []byte) []byte { return append(f, 0) }},
		{"trailing byte declared", func(resp *http.Response, f []byte) []byte { declare(resp, len(f)+1); return append(f, 0) }},
		{"short body", func(_ *http.Response, f []byte) []byte { return f[:len(f)-1] }},
		{"no Content-Length", func(resp *http.Response, f []byte) []byte { resp.ContentLength = -1; return f }},
		{"application/json", func(resp *http.Response, f []byte) []byte {
			// What a node predating the frame would answer.
			matches, gen, err := DecodeResponseFrame(f, rows, nil)
			if err != nil {
				t.Fatal(err)
			}
			var shard1 []netutil.Addr
			for _, a := range addrs {
				if m.ShardFor(a) == 1 {
					shard1 = append(shard1, a)
				}
			}
			f = AppendBatchJSON(nil, shard1, matches, gen)
			resp.Header.Set("Content-Type", "application/json")
			declare(resp, len(f))
			return f
		}},
		{"503", func(resp *http.Response, f []byte) []byte {
			resp.StatusCode, resp.Status = http.StatusServiceUnavailable, "503 Service Unavailable"
			return []byte("batch capacity exhausted, retry later\n")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes["shard1"].tamper = tc.tamper
			degraded := routerDegraded.Value()
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("POST /cluster = %d: %s", rec.Code, rec.Body)
			}
			var out RouterBatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
			checkDegraded(t, &out, tables, m, addrs, 1)
			t.Logf("shard 1: %s", out.Degradation["1"])
			if got := routerDegraded.Value() - degraded; got != 1 {
				t.Fatalf("shard.router.degraded_batches moved by %d, want 1", got)
			}
		})
	}

	// Untampered, the same batch is clean: the rules above reject the
	// edits, not the node.
	nodes["shard1"].tamper = nil
	out := rt.Batch(addrs)
	if len(out.Degradation) != 0 {
		t.Fatalf("healthy cluster degraded: %v", out.Degradation)
	}
	for i, r := range out.Results {
		if want := fixtureOracle(tables, m, addrs[i]); r.LookupResult != want || r.Error != "" {
			t.Fatalf("row %d = %+v, want the oracle's %+v", i, r, want)
		}
	}
}

// TestRouterReusesShardConnections pins the router's own transport:
// rounds of 16 concurrent batches must settle on the connections the
// first round opened. On net/http's default transport, which keeps two
// idle connections per host, every round dials a dozen new ones per
// shard.
func TestRouterReusesShardConnections(t *testing.T) {
	const concurrent = 16
	var opened atomic.Int64
	// Each node holds its requests until a whole round has arrived, so a
	// round needs `concurrent` connections per shard at once.
	var arrived sync.WaitGroup
	fx := &routerFixture{m: NewMap(3), tables: fixtureTables()}
	for i, table := range fx.tables {
		node := (&NodeServer{Table: table, ShardID: i}).Handler()
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			arrived.Done()
			arrived.Wait()
			node.ServeHTTP(w, r)
		}))
		srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				opened.Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		fx.m.Shards[i].Addr = srv.URL
	}
	rt, err := NewRouter(RouterConfig{Map: fx.m})
	if err != nil {
		t.Fatal(err)
	}
	addrs := fixtureProbes(4)
	round := func() int64 {
		before := opened.Load()
		arrived.Add(concurrent * len(fx.m.Shards))
		var wg sync.WaitGroup
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if out := rt.Batch(addrs); len(out.Degradation) != 0 {
					t.Errorf("healthy cluster degraded: %v", out.Degradation)
				}
			}()
		}
		wg.Wait()
		return opened.Load() - before
	}
	if n := round(); n != concurrent*int64(len(fx.m.Shards)) {
		t.Fatalf("first round opened %d connections, want %d", n, concurrent*len(fx.m.Shards))
	}
	// The transport returns a connection to its idle pool just after the
	// caller sees the end of the body, so a round started right behind
	// another may still dial once or twice; one of the next few opens
	// nothing if connections are kept at all.
	var dialed []int64
	for i := 0; i < 4; i++ {
		n := round()
		if n == 0 {
			return
		}
		dialed = append(dialed, n)
	}
	t.Fatalf("every later round dialed new connections: %v", dialed)
}

func TestRouterLookupProxyAndShardMap(t *testing.T) {
	fx := newRouterFixture(t, nil, 0)
	srv := httptest.NewServer(fx.router.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/lookup?addr=200.1.2.3")
	if err != nil {
		t.Fatal(err)
	}
	var res RouterResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !res.Clustered || res.Shard != 2 || res.Prefix != "200.0.0.0/8" {
		t.Fatalf("proxied lookup = %+v", res)
	}

	resp, err = srv.Client().Get(srv.URL + "/shardmap")
	if err != nil {
		t.Fatal(err)
	}
	data := json.NewDecoder(resp.Body)
	var m Map
	if err := data.Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := m.Validate(); err != nil {
		t.Fatalf("/shardmap served an invalid map: %v", err)
	}
	if m.NumShards() != 3 || m.Shards[0].Addr == "" {
		t.Fatalf("/shardmap = %+v", m)
	}
}
