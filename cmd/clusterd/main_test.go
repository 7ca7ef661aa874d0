package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/node"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/shard"
)

// testNode is the node clusterd serves, over one 10.0.0.0/8 prefix,
// with the limits small enough to hit.
func testNode(t *testing.T) *node.Node {
	t.Helper()
	mg := bgp.NewMerged()
	mg.Add(&bgp.Snapshot{Name: "AADS", Kind: bgp.SourceBGP, Entries: []bgp.Entry{
		{Prefix: netutil.MustParsePrefix("10.0.0.0/8")},
	}})
	n, err := node.New(node.Config{
		Table:    churn.New(mg),
		Tunables: node.Tunables{MaxInflight: 1, MaxBatch: 3, MaxBodyBytes: 64, BusyK: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Counters the node publishes under clusterd's names.
var (
	batchCount    = obsv.C("clusterd.batches")
	batchAddrs    = obsv.C("clusterd.batch.addrs")
	batchRejected = obsv.C("clusterd.batch.rejected")
	lookupCount   = obsv.C("clusterd.lookups")
)

func post(t *testing.T, h http.Handler, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/cluster", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestBatchHandlerMount drives the node's mount of the shared batch
// core: both request forms answered from one pinned generation, the
// node's limits, admission and busy accounting applied around it.
func TestBatchHandlerMount(t *testing.T) {
	n := testNode(t)
	h := n.Handler()
	batches, addrs, rejected := batchCount.Value(), batchAddrs.Value(), batchRejected.Value()

	rec := post(t, h, "text/plain", []byte("10.1.2.3\n\n11.1.2.3\n"))
	var br shard.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("text batch: %d %v %s", rec.Code, err, rec.Body)
	}
	want := []shard.LookupResult{
		{Addr: "10.1.2.3", Clustered: true, Prefix: "10.0.0.0/8", Kind: bgp.SourceBGP.String()},
		{Addr: "11.1.2.3"},
	}
	if len(br.Results) != 2 || br.Results[0] != want[0] || br.Results[1] != want[1] {
		t.Fatalf("text batch answered %+v, want %+v", br.Results, want)
	}

	// A router's batch arrives as a frame on a batch stream, spoken here
	// byte by byte as internal/shard's stream.go lays it out.
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer n.Shutdown(context.Background())
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	io.WriteString(conn, "GET /cluster/stream HTTP/1.1\r\nHost: node\r\nConnection: Upgrade\r\nUpgrade: netcluster-batch\r\n\r\n")
	accept := "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: netcluster-batch\r\n\r\n"
	got := make([]byte, len(accept))
	if _, err := io.ReadFull(conn, got); err != nil || string(got) != accept {
		t.Fatalf("upgrade answered %q, %v", got, err)
	}
	probe := []netutil.Addr{netutil.MustParseAddr("11.1.2.3"), netutil.MustParseAddr("10.1.2.3")}
	header := []byte("trace-idspan-id!") // 16 bytes the answer must echo
	conn.Write(shard.AppendRequestFrame(header[:16:16], probe))
	answer := make([]byte, 16+16+6*len(probe))
	if _, err := io.ReadFull(conn, answer); err != nil || !bytes.Equal(answer[:16], header) {
		t.Fatalf("frame batch answered %x: %v", answer, err)
	}
	matches, gen, err := shard.DecodeResponseFrame(answer[16:], len(probe), nil)
	if err != nil || gen != 0 || !matches[0].Prefix.IsZero() || matches[1].Prefix != netutil.MustParsePrefix("10.0.0.0/8") {
		t.Fatalf("frame batch answered %+v gen %d: %v", matches, gen, err)
	}

	// Every resolved address reached the busy accumulator.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/busy", nil))
	var busy struct{ Requests, Unclustered uint64 }
	if err := json.Unmarshal(rec.Body.Bytes(), &busy); err != nil || busy.Requests != 4 || busy.Unclustered != 2 {
		t.Fatalf("busy tracker saw %+v (%v), want 4 requests, 2 unclustered", busy, err)
	}

	// The limits are this process's tunables, and both refuse with 413.
	if rec = post(t, h, "text/plain", []byte("1.1.1.1\n2.2.2.2\n3.3.3.3\n4.4.4.4\n")); rec.Code != http.StatusRequestEntityTooLarge ||
		rec.Body.String() != "batch exceeds 3 addresses\n" {
		t.Fatalf("4 addresses at max-batch 3: %d %q", rec.Code, rec.Body)
	}
	if rec = post(t, h, "text/plain", []byte(strings.Repeat("\n", 65))); rec.Code != http.StatusRequestEntityTooLarge ||
		rec.Body.String() != "body exceeds 64 bytes\n" {
		t.Fatalf("65 bytes at max-body 64: %d %q", rec.Code, rec.Body)
	}

	// Admission: with the one slot held by a request still sending its
	// body, the next is refused with Retry-After, not queued.
	slow, feed := io.Pipe()
	held := make(chan *httptest.ResponseRecorder)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster", slow))
		held <- rec
	}()
	feed.Write([]byte("10.0.0.1\n")) // returns once the handler is reading: the slot is taken
	if rec = post(t, h, "text/plain", []byte("10.0.0.2\n")); rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("batch beside a held slot: %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	feed.Close()
	if rec = <-held; rec.Code != http.StatusOK {
		t.Fatalf("held batch: %d %s", rec.Code, rec.Body)
	}
	if rec = post(t, h, "text/plain", []byte("10.0.0.3\n")); rec.Code != http.StatusOK {
		t.Fatalf("batch after the slot freed: %d %s", rec.Code, rec.Body)
	}

	// clusterd.batches counts admitted requests (2 answered, 2 refused
	// for size, the held one, the last), clusterd.batch.addrs answered
	// addresses, clusterd.batch.rejected the 503.
	if b, a, r := batchCount.Value()-batches, batchAddrs.Value()-addrs, batchRejected.Value()-rejected; b != 6 || a != 6 || r != 1 {
		t.Fatalf("counters moved by batches=%d addrs=%d rejected=%d, want 6, 6, 1", b, a, r)
	}
}

func TestLookupAnswer(t *testing.T) {
	h := testNode(t).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/lookup?addr=10.9.8.7", nil))
	want := `{"addr":"10.9.8.7","clustered":true,"prefix":"10.0.0.0/8","kind":"BGP routing table","generation":0}` + "\n"
	if rec.Code != http.StatusOK || rec.Body.String() != want || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("GET /lookup = %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
}

// TestLookupTimedOnce: the clusterd.lookup span's .ns histogram is the
// one timing of a /lookup, so it counts exactly what clusterd.lookups
// counts.
func TestLookupTimedOnce(t *testing.T) {
	h := testNode(t).Handler()
	ns := obsv.H("clusterd.lookup.ns")
	timed, counted := ns.Snapshot().Count, lookupCount.Value()
	const n = 5
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/lookup?addr=10.9.8.7", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /lookup = %d %q", rec.Code, rec.Body)
		}
	}
	if got, want := ns.Snapshot().Count-timed, lookupCount.Value()-counted; got != want || want != n {
		t.Fatalf("%d lookups: clusterd.lookup.ns counted %d, clusterd.lookups %d", n, got, want)
	}
}

// TestParseFileConfigRejectsSinks: the push exporters are gone, and a
// config file that still names them is a rejected reload, not a silent
// no-op.
func TestParseFileConfigRejectsSinks(t *testing.T) {
	_, err := parseFileConfig([]byte(`{"sinks": []}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "sinks"`) {
		t.Fatalf(`parseFileConfig({"sinks": []}) = %v, want an unknown-field error`, err)
	}
	if _, err := parseFileConfig([]byte(`{"max_inflight": 2}`)); err != nil {
		t.Fatalf("a config without sinks: %v", err)
	}
}
