package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
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

// killed is the context a test hands Shutdown to end batch streams at
// once, as a crash would.
func killed() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// newRouter builds a router that is closed with the test.
func newRouter(t testing.TB, cfg RouterConfig) *Router {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// newRouterFixture serves the three shards on loopback sockets. dial, when
// set, replaces the router's TCP dial.
func newRouterFixture(t *testing.T, dial func(context.Context, string) (net.Conn, error), timeout time.Duration) *routerFixture {
	t.Helper()
	fx := &routerFixture{m: NewMap(3), tables: fixtureTables()}
	for i, table := range fx.tables {
		node := &NodeServer{Table: table, ShardID: i}
		srv := httptest.NewServer(node.Handler())
		t.Cleanup(func() {
			srv.Close()
			node.Shutdown(killed())
		})
		fx.srvs = append(fx.srvs, srv)
		fx.m.Shards[i].Addr = srv.URL
	}
	fx.router = newRouter(t, RouterConfig{Map: fx.m, Dial: dial, Timeout: timeout})
	return fx
}

// pipeNodes stands the same three shards up on a pipeNet instead of
// sockets: shard i is a real NodeServer behind a real http.Server at
// http://shardi.
func pipeNodes(t testing.TB) (*Map, *pipeNet, []*churn.Table) {
	t.Helper()
	m, pn, tables := NewMap(3), &pipeNet{nodes: map[string]func(net.Conn){}}, fixtureTables()
	for i, table := range tables {
		node := &NodeServer{Table: table, ShardID: i}
		host := "shard" + strconv.Itoa(i)
		pn.nodes[host+":80"] = servePipes(t, node.Handler(), node.Shutdown)
		m.Shards[i].Addr = "http://" + host
	}
	return m, pn, tables
}

// newPipeRouter is a router over pipeNodes.
func newPipeRouter(t testing.TB) (*Router, *pipeNet, []*churn.Table) {
	t.Helper()
	m, pn, tables := pipeNodes(t)
	return newRouter(t, RouterConfig{Map: m, Dial: pn.dial}), pn, tables
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
	// bytes, so shard 2's 1,568-byte answer takes two dozen flips. The
	// stream carries no checksum — that is TCP's job — but nearly every
	// bit of an answer is checked (the echoed header, columns, lengths,
	// and that each prefix covers the address it answers), so that many
	// flips cannot all land on the few that are not.
	addrs := fixtureProbes(256)
	const timeout = 250 * time.Millisecond
	for _, tc := range []struct {
		name    string
		profile faultnet.Profile
	}{
		// A dropped segment on a stream is a retransmission delay; this one
		// outlasts the per-shard budget.
		{"drop", faultnet.Profile{Seed: 1, Outbound: faultnet.Faults{Drop: 1, Latency: timeout / 2}}},
		{"reset", faultnet.Profile{Seed: 1, Outbound: faultnet.Faults{Reset: 1}}},
		{"truncate", faultnet.Profile{Seed: 1, Inbound: faultnet.Faults{Truncate: 1}}},
		{"corrupt", faultnet.Profile{Seed: 1, Inbound: faultnet.Faults{Corrupt: 1}}},
	} {
		// cold: the faults meet a fresh connection, handshake first. warm:
		// they set in on a pooled connection between two exchanges.
		for _, warm := range []bool{false, true} {
			name := tc.name
			if warm {
				name += "/warm"
			}
			t.Run(name, func(t *testing.T) {
				inj := faultnet.New(faultnet.Profile{Seed: tc.profile.Seed})
				var fx *routerFixture
				var dialer net.Dialer
				// Faults are injected only on connections to shard 2, so the
				// router sees one partitioned shard in a healthy cluster.
				fx = newRouterFixture(t, func(ctx context.Context, addr string) (net.Conn, error) {
					conn, err := dialer.DialContext(ctx, "tcp", addr)
					if err == nil && "http://"+addr == fx.srvs[2].URL {
						conn = inj.Conn(conn)
					}
					return conn, err
				}, timeout)
				rt := fx.router
				if warm {
					if out := rt.BatchCtx(context.Background(), addrs); len(out.Degradation) != 0 {
						t.Fatalf("cluster degraded before any fault: %v", out.Degradation)
					}
				}
				inj.SetProfile(tc.profile)

				degraded := routerDegraded.Value()
				out := rt.BatchCtx(context.Background(), addrs)
				checkDegraded(t, out, fx.tables, fx.m, addrs, 2)
				t.Logf("shard 2: %s", out.Degradation["2"])
				if got := routerDegraded.Value() - degraded; got != 1 {
					t.Fatalf("shard.router.degraded_batches moved by %d, want 1", got)
				}
				if st := inj.Stats(); st.Total() == 0 {
					t.Fatal("no fault was injected into the partitioned shard's traffic")
				}
			})
		}
	}
}

// postText routes addrs through rt's own POST /cluster handler.
func postText(t *testing.T, rt *Router, addrs []netutil.Addr) *RouterBatchResponse {
	t.Helper()
	var body []byte
	for _, a := range addrs {
		body = append(a.Append(body), '\n')
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /cluster = %d: %s", rec.Code, rec.Body)
	}
	var out RouterBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// checkClean holds a routed answer to the healthy contract: no
// degradation, every row the single-node oracle's.
func checkClean(t *testing.T, out *RouterBatchResponse, tables []*churn.Table, m *Map, addrs []netutil.Addr) {
	t.Helper()
	if len(out.Degradation) != 0 {
		t.Fatalf("healthy cluster degraded: %v", out.Degradation)
	}
	for i, r := range out.Results {
		if want := fixtureOracle(tables, m, addrs[i]); r.LookupResult != want || r.Error != "" {
			t.Fatalf("row %d = %+v, want the oracle's %+v", i, r, want)
		}
	}
}

// TestRouterRejectsBadFrames hands the router one hand-built bad answer
// per rejection rule from shard 1 — to the upgrade or to a request — and
// holds the routed JSON to the degrade-never-lie contract each time.
func TestRouterRejectsBadFrames(t *testing.T) {
	m, real, tables := pipeNodes(t)
	addrs := fixtureProbes(8)
	// Shard 1's answer is the echoed stream header and a frame of 8 rows;
	// row 0 answers a hit in 100.0.0.0/8.
	const rows = 8
	const frame = streamHeaderLen
	base, bits, kind := frame+responseHeaderLen, frame+responseHeaderLen+4*rows, frame+responseHeaderLen+5*rows

	// edit sends the answer changed, cut sends it short of its last n
	// bytes and hangs up, refuse sends an error frame in its place.
	type answer = func(w io.Writer, n int, ans []byte) bool
	edit := func(fn func(a []byte) []byte) answer {
		return func(w io.Writer, _ int, ans []byte) bool { w.Write(fn(ans)); return false }
	}
	cut := func(keep func(ans []byte) int) answer {
		return func(w io.Writer, _ int, ans []byte) bool { w.Write(ans[:keep(ans)]); return true }
	}
	refuse := func(status int, msg string) answer {
		return edit(func(a []byte) []byte { return appendErrorFrame(a[:frame], status, msg) })
	}
	// A node that never heard of the stream, and one that hears the
	// upgrade as an ordinary request.
	noStream := http.NewServeMux()
	noStream.Handle("/cluster", &BatchHandler{Table: tables[1], Batches: nodeBatches, Addrs: nodeAddrs})
	deaf := http.NewServeMux()
	deaf.HandleFunc(StreamPath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(AppendBatchJSON(nil, nil, nil, 0))
	})

	for _, tc := range []struct {
		name      string
		warm      bool // route one clean batch first; the answer under test is the second
		node      func(net.Conn)
		handshake func(w io.Writer, resp []byte) bool
		answer    answer
	}{
		{name: "wrong magic", answer: edit(func(a []byte) []byte { a[frame] ^= 0xff; return a })},
		{name: "wrong count", answer: edit(func(a []byte) []byte { a[frame+4]++; return a })},
		{name: "one row short", answer: edit(func(a []byte) []byte {
			matches, gen, err := DecodeResponseFrame(a[frame:], rows, nil)
			if err != nil {
				t.Error(err)
			}
			return AppendResponseFrame(a[:frame], gen, matches[:rows-1])
		})},
		{name: "bits 33", answer: edit(func(a []byte) []byte { a[bits] = 33; return a })},
		{name: "host bits set", answer: edit(func(a []byte) []byte { a[base] |= 1; return a })},
		{name: "unknown kind", answer: edit(func(a []byte) []byte { a[kind] = 2; return a })},
		{name: "miss with kind", answer: edit(func(a []byte) []byte {
			a[bits], a[kind] = 0, 1
			copy(a[base:], "\x00\x00\x00\x00")
			return a
		})},
		{name: "prefix of another address", answer: edit(func(a []byte) []byte { a[base+3] = 99; return a })},
		{name: "trailing byte", answer: edit(func(a []byte) []byte { return append(a, 0) })},
		{name: "short body", answer: cut(func(a []byte) int { return len(a) - 1 })},
		{name: "truncated header", answer: cut(func([]byte) int { return frame + 3 })},
		{name: "truncated columns", answer: cut(func([]byte) int { return bits + 2 })},
		{name: "header of another request", answer: edit(func(a []byte) []byte { a[8] ^= 1; return a })},
		// The node answers the first request twice. The router has its
		// answer and asks again; what it reads next is the duplicate, a
		// well-formed answer to the very same addresses.
		{name: "second answer with no request", warm: true, answer: func(w io.Writer, n int, ans []byte) bool {
			if n == 1 {
				w.Write(ans)
				go w.Write(ans)
				return false
			}
			// The duplicate goes out ahead of this answer: writes to a pipe
			// queue in order.
			w.Write(ans)
			return false
		}},
		{name: "503", answer: refuse(http.StatusServiceUnavailable, "batch capacity exhausted, retry later")},
		{name: "413", answer: refuse(http.StatusRequestEntityTooLarge, "batch exceeds 2 addresses")},
		{name: "400", answer: refuse(http.StatusBadRequest, "batch frame: not a request frame")},
		{name: "error frame over 512", answer: edit(func(a []byte) []byte {
			a = appendErrorFrame(a[:frame], http.StatusBadRequest, "")
			binary.LittleEndian.PutUint16(a[frame+6:], maxErrorMessage+1)
			return append(a, make([]byte, maxErrorMessage+1)...)
		})},
		{name: "error frame cut short", answer: func(w io.Writer, _ int, ans []byte) bool {
			full := appendErrorFrame(ans[:frame], http.StatusBadRequest, "batch frame: not a request frame")
			w.Write(full[:len(full)-5])
			return true
		}},
		// What a node predating the stream answers the upgrade with.
		{name: "404", node: servePipes(t, noStream, nil)},
		{name: "application/json", node: servePipes(t, deaf, nil)},
		{name: "101 for another protocol", handshake: func(w io.Writer, resp []byte) bool {
			w.Write(bytes.Replace(resp, []byte(streamProtocol), []byte("websocket"), 1))
			return false
		}},
		{name: "answer before any request", handshake: func(w io.Writer, resp []byte) bool {
			w.Write(AppendResponseFrame(append(resp, make([]byte, streamHeaderLen)...), 0, make([]bgp.Match, rows)))
			return false
		}},
		{name: "truncated handshake", handshake: func(w io.Writer, resp []byte) bool {
			w.Write(resp[:len(resp)-2])
			return true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := real.nodes["shard1:80"]
			if tc.node != nil {
				node = tc.node
			}
			pn := &pipeNet{nodes: map[string]func(net.Conn){
				"shard0:80": real.nodes["shard0:80"],
				"shard1:80": (&tamperer{node: node, handshake: tc.handshake, answer: tc.answer}).serve,
				"shard2:80": real.nodes["shard2:80"],
			}}
			rt := newRouter(t, RouterConfig{Map: m, Dial: pn.dial, Timeout: time.Second})
			if tc.warm {
				checkClean(t, postText(t, rt, addrs), tables, m, addrs)
			}
			degraded := routerDegraded.Value()
			out := postText(t, rt, addrs)
			checkDegraded(t, out, tables, m, addrs, 1)
			t.Logf("shard 1: %s", out.Degradation["1"])
			if got := routerDegraded.Value() - degraded; got != 1 {
				t.Fatalf("shard.router.degraded_batches moved by %d, want 1", got)
			}
		})
	}

	// Relayed untampered, the same batch is clean: the rules above reject
	// the edits, not the node or the relay.
	real.nodes["shard1:80"] = (&tamperer{node: real.nodes["shard1:80"]}).serve
	rt := newRouter(t, RouterConfig{Map: m, Dial: real.dial})
	checkClean(t, rt.BatchCtx(context.Background(), addrs), tables, m, addrs)
}

// TestRouterReusesShardConnections counts dials: the router keeps the
// batch streams it opened, reuses them whatever the concurrency, and
// replaces one only under the retry rule.
func TestRouterReusesShardConnections(t *testing.T) {
	addrs := fixtureProbes(4)

	t.Run("sequential", func(t *testing.T) {
		rt, pn, tables := newPipeRouter(t)
		for i := 0; i < 20; i++ {
			checkClean(t, rt.BatchCtx(context.Background(), addrs), tables, rt.cfg.Map, addrs)
		}
		if n := pn.dials.Load(); n != 3 {
			t.Fatalf("20 sequential batches dialed %d connections, want one per shard", n)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// Each node holds its answers until a whole round has arrived, so a
		// round needs `concurrent` connections per shard at once; the next
		// round must find them all idle.
		const concurrent = 16
		m, pn, _ := pipeNodes(t)
		var arrived sync.WaitGroup
		for host, node := range pn.nodes {
			pn.nodes[host] = (&tamperer{node: node, answer: func(w io.Writer, _ int, ans []byte) bool {
				arrived.Done()
				arrived.Wait()
				w.Write(ans)
				return false
			}}).serve
		}
		rt := newRouter(t, RouterConfig{Map: m, Dial: pn.dial})
		round := func() int64 {
			before := pn.dials.Load()
			arrived.Add(concurrent * len(m.Shards))
			var wg sync.WaitGroup
			for i := 0; i < concurrent; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if out := rt.BatchCtx(context.Background(), addrs); len(out.Degradation) != 0 {
						t.Errorf("healthy cluster degraded: %v", out.Degradation)
					}
				}()
			}
			wg.Wait()
			return pn.dials.Load() - before
		}
		if n := round(); n != concurrent*int64(len(m.Shards)) {
			t.Fatalf("first round opened %d connections, want %d", n, concurrent*len(m.Shards))
		}
		for i := 0; i < 3; i++ {
			if n := round(); n != 0 {
				t.Fatalf("round %d dialed %d new connections, want 0", i+2, n)
			}
		}
	})

	t.Run("closed while idle", func(t *testing.T) {
		// The node drops shard 1's connection between two batches: the next
		// exchange fails before any answer byte on a reused connection, which
		// is the one failure retried — one redial, and a clean answer.
		m, pn, tables := pipeNodes(t)
		var nodeEnd net.Conn
		node := pn.nodes["shard1:80"]
		pn.nodes["shard1:80"] = func(c net.Conn) { nodeEnd = c; node(c) }
		rt := newRouter(t, RouterConfig{Map: m, Dial: pn.dial})
		checkClean(t, rt.BatchCtx(context.Background(), addrs), tables, m, addrs)
		nodeEnd.Close()
		errs := routerShardErrs.Value()
		checkClean(t, rt.BatchCtx(context.Background(), addrs), tables, m, addrs)
		if n := pn.dials.Load(); n != 4 {
			t.Fatalf("%d dials, want 3 and one redial", n)
		}
		if got := routerShardErrs.Value() - errs; got != 0 {
			t.Fatalf("the retried exchange counted %d shard errors", got)
		}
	})

	t.Run("broken mid-answer", func(t *testing.T) {
		// A reused connection that fails after the first byte of an answer
		// is not retried: the shard degrades, and only the batch after
		// dials again.
		m, pn, tables := pipeNodes(t)
		pn.nodes["shard1:80"] = (&tamperer{node: pn.nodes["shard1:80"], answer: func(w io.Writer, n int, ans []byte) bool {
			if n == 2 {
				w.Write(ans[:len(ans)/2])
				return true
			}
			w.Write(ans)
			return false
		}}).serve
		rt := newRouter(t, RouterConfig{Map: m, Dial: pn.dial})
		checkClean(t, rt.BatchCtx(context.Background(), addrs), tables, m, addrs)
		checkDegraded(t, rt.BatchCtx(context.Background(), addrs), tables, m, addrs, 1)
		if n := pn.dials.Load(); n != 3 {
			t.Fatalf("%d dials after the broken answer, want 3: no retry", n)
		}
		checkClean(t, rt.BatchCtx(context.Background(), addrs), tables, m, addrs)
		if n := pn.dials.Load(); n != 4 {
			t.Fatalf("%d dials, want 4: the broken connection replaced once", n)
		}
	})

	t.Run("503 keeps the connection", func(t *testing.T) {
		m, pn, tables := pipeNodes(t)
		pn.nodes["shard1:80"] = (&tamperer{node: pn.nodes["shard1:80"], answer: func(w io.Writer, n int, ans []byte) bool {
			if n == 2 {
				ans = appendErrorFrame(ans[:streamHeaderLen], http.StatusServiceUnavailable, errNoCapacity.Error())
			}
			w.Write(ans)
			return false
		}}).serve
		rt := newRouter(t, RouterConfig{Map: m, Dial: pn.dial})
		checkClean(t, rt.BatchCtx(context.Background(), addrs), tables, m, addrs)
		out := rt.BatchCtx(context.Background(), addrs)
		checkDegraded(t, out, tables, m, addrs, 1)
		if want := "503 Service Unavailable: " + errNoCapacity.Error(); out.Degradation["1"] != want {
			t.Fatalf("degradation %q, want %q", out.Degradation["1"], want)
		}
		checkClean(t, rt.BatchCtx(context.Background(), addrs), tables, m, addrs)
		if n := pn.dials.Load(); n != 3 {
			t.Fatalf("%d dials, want 3: a refused batch leaves the stream in step", n)
		}
	})
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
