package shard

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
)

// scannerParseAddrList is ParseAddrList as it stood before the byte
// parser — bufio.Scanner, a string per line, strings.TrimSpace — kept as
// the differential oracle: same addresses, same error text, same
// too-large and too-long behaviour.
func scannerParseAddrList(r io.Reader, max int) ([]netutil.Addr, error) {
	sc := bufio.NewScanner(r)
	addrs := make([]netutil.Addr, 0, 256)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if len(addrs) >= max {
			return nil, errBatchTooLarge
		}
		addr, err := netutil.ParseAddr(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad addr %q", len(addrs)+1, line)
		}
		addrs = append(addrs, addr)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return addrs, nil
}

// sameParse fails t unless ParseAddrList and the oracle agree on body.
func sameParse(t *testing.T, body []byte, limit int) {
	t.Helper()
	got, gotErr := ParseAddrList(bytes.NewReader(body), limit)
	want, wantErr := scannerParseAddrList(bytes.NewReader(body), limit)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("limit %d, %.60q (%d bytes): error %v, oracle %v", limit, body, len(body), gotErr, wantErr)
	}
	if len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("limit %d, %.60q: %d addresses, oracle %d", limit, body, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("limit %d, %.60q: address %d is %s, oracle %s", limit, body, i, got[i], want[i])
		}
	}
}

// parseCases are address lists at the edges of the format; they seed the
// fuzz target too.
func parseCases() [][]byte {
	long := func(n int, tail string) []byte { return append(bytes.Repeat([]byte{' '}, n), tail...) }
	return [][]byte{
		nil,
		[]byte("\n\n\n"),
		[]byte("12.65.147.94\n10.1.2.3\n\n4.4.4.4\n"),
		[]byte("12.65.147.94\r\n10.1.2.3\r\n\r\n4.4.4.4"),
		[]byte("  1.2.3.4\t\n\u00a01.2.3.5\u2003\n\u30001.2.3.6\u0085\n\v\f\n\u2028\n"),
		[]byte("1.2.3.4\nnot-an-ip\n5.6.7.8\n"),
		[]byte("1.2.3.4\n1.2.3\n"),
		[]byte("1.2.3.4\n1.2.3.4.5\n"),
		[]byte("1.2.3.4\n256.1.1.1\n"),
		[]byte("001.002.003.004\n+1.2.3.4\n"),
		[]byte("1.2.3.4\n\xff\xfe\n"),
		[]byte("1.2.3.4\x00\n"),
		[]byte("1.1.1.1\n2.2.2.2\n3.3.3.3\n4.4.4.4\nbad\n"), // too large before bad at limit 4
		[]byte("1.1.1.1\n2.2.2.2\n3.3.3.3\nbad\n5.5.5.5\n"), // bad before too large at limit 4
		long(bufio.MaxScanTokenSize-8, "1.2.3.4\n2.2.2.2"),  // the longest line that fits: 65,535 bytes
		long(bufio.MaxScanTokenSize-7, "1.2.3.4\n2.2.2.2"),  // one byte past it
		long(bufio.MaxScanTokenSize-7, "1.2.3.4"),           // the same, unterminated
		long(bufio.MaxScanTokenSize-9, "1.2.3.4\r\n"),       // the carriage return counts
		long(bufio.MaxScanTokenSize-8, "1.2.3.4\r\n"),
		append([]byte("bad\n"), long(bufio.MaxScanTokenSize, "\n")...), // bad line before the long one
	}
}

func TestParseAddrListMatchesScanner(t *testing.T) {
	for _, body := range parseCases() {
		for _, limit := range []int{0, 1, 4, DefaultMaxBatch} {
			sameParse(t, body, limit)
		}
	}
	// The byte parser in place, without the reader: a reused destination
	// is appended to from its start, and its limit counts addresses, not
	// lines.
	dst := make([]netutil.Addr, 0, 8)
	got, err := parseAddrLines([]byte("\n1.2.3.4\n\n5.6.7.8"), 2, dst)
	if err != nil || len(got) != 2 || &got[0] != &dst[:1][0] {
		t.Fatalf("parseAddrLines = %v, %v", got, err)
	}
}

// FuzzParseAddrList is the differential target: whatever the bytes and
// the limit, the byte parser and the bufio.Scanner implementation it
// replaced return the same addresses or the same error. pad indents the
// first line with that many spaces, which reaches the line-length limit
// without 64 KiB corpus entries.
func FuzzParseAddrList(f *testing.F) {
	for _, body := range parseCases() {
		if len(body) < 1<<10 {
			f.Add(body, 4, uint32(0))
		}
	}
	f.Add([]byte("1.2.3.4\n2.2.2.2"), 4, uint32(bufio.MaxScanTokenSize-8))
	f.Add([]byte("1.2.3.4\n2.2.2.2"), 4, uint32(bufio.MaxScanTokenSize-7))
	f.Fuzz(func(t *testing.T, body []byte, limit int, pad uint32) {
		padded := append(bytes.Repeat([]byte{' '}, int(pad%(2*bufio.MaxScanTokenSize))), body...)
		sameParse(t, padded, limit%(1<<16))
	})
}

// oversized is a body one byte past DefaultMaxBody that never exists in
// memory: blank lines, streamed.
func oversized() io.Reader {
	return io.LimitReader(repeat('\n'), DefaultMaxBody+1)
}

type repeat byte

func (b repeat) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// postOversized posts a body past the cap to url twice — once with its
// length declared, so the handler can refuse it unread, once streamed,
// so it must notice while reading — and wants 413 with the cap named.
func postOversized(t *testing.T, url string) {
	t.Helper()
	for _, declared := range []bool{true, false} {
		req, err := http.NewRequest(http.MethodPost, url, oversized())
		if err != nil {
			t.Fatal(err)
		}
		if declared {
			req.ContentLength = DefaultMaxBody + 1
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("declared=%v: %v", declared, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf("body exceeds %d bytes\n", DefaultMaxBody); resp.StatusCode != http.StatusRequestEntityTooLarge || string(msg) != want {
			t.Fatalf("declared=%v: %s %q, want 413 %q", declared, resp.Status, msg, want)
		}
	}
}

func TestBatchHandlerCapsBatchBody(t *testing.T) {
	h := testNode(fixtureTables()[0], 0)
	h.Limits = Limits{MaxBatch: 2}
	srv := httptest.NewServer(mount(h))
	defer srv.Close()
	postOversized(t, srv.URL+"/cluster")

	// The address cap answers 413 too: over HTTP for a client's text, in
	// an error frame for a router's batch frame.
	resp, err := http.Post(srv.URL+"/cluster", "text/plain", strings.NewReader("0.0.0.1\n0.0.0.2\n0.0.0.3\n"))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || string(msg) != "batch exceeds 2 addresses\n" {
		t.Fatalf("text: %s %q, want 413", resp.Status, msg)
	}
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	upgradeOn(t, conn)
	three := []netutil.Addr{1, 2, 3}
	request := streamRequest(5, 6, AppendRequestFrame(nil, three))
	answer := make([]byte, streamHeaderLen+responseFrameLen(3)+1)
	_, _, _, inStep, err := exchange(conn, time.Now().Add(10*time.Second), request, answer, three, nil)
	if err == nil || err.Error() != "413 Request Entity Too Large: batch exceeds 2 addresses" || inStep {
		t.Fatalf("frame: %v (in step: %v), want the 413 and a closed stream", err, inStep)
	}
	// Closed with the refused addresses unread, which TCP may report as a
	// reset rather than an end of file.
	if n, err := conn.Read(answer); n != 0 || err == nil {
		t.Fatalf("after the 413: read %d bytes, %v; want the stream closed", n, err)
	}
	// The frame is not spoken over POST any more: it is text, and bad text.
	resp, err = http.Post(srv.URL+"/cluster", "application/x-netcluster-batch", bytes.NewReader(request[streamHeaderLen:]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a frame posted to /cluster: %s, want 400", resp.Status)
	}
}

func TestRouterCapsBatchBody(t *testing.T) {
	fx := newRouterFixture(t, nil, 0)
	srv := httptest.NewServer(fx.router.Handler())
	defer srv.Close()
	batches := routerBatches.Value()
	postOversized(t, srv.URL+"/cluster")
	if got := routerBatches.Value() - batches; got != 0 {
		t.Fatalf("%d refused bodies were fanned out", got)
	}
}

// discard is a ResponseWriter that keeps nothing, for allocation counts.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) WriteHeader(int)             {}
func (d discard) Write(p []byte) (int, error) { return len(p), nil }

// perAddress runs serve on batches of two sizes and returns how many
// allocations each extra address cost. What a request allocates whatever
// its size — spans, headers, goroutines — cancels out.
func perAddress(t *testing.T, serve func(addrs []netutil.Addr) func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const small, large = 64, 4096
	all := fixtureProbes(large/3 + 1)
	runSmall, runLarge := serve(all[:small]), serve(all[:large])
	// The larger batch first, so the pooled scratch is already grown.
	allocsLarge := testing.AllocsPerRun(50, runLarge)
	allocsSmall := testing.AllocsPerRun(50, runSmall)
	t.Logf("%.0f allocations for %d addresses, %.0f for %d", allocsSmall, small, allocsLarge, large)
	return (allocsLarge - allocsSmall) / (large - small)
}

func TestBatchHandlerFrameAllocsPerAddress(t *testing.T) {
	h := testNode(fixtureTables()[0], 0)
	// One stream serves every run, as one connection would.
	conn := &scriptConn{}
	st := &nodeStream{conn: conn}
	per := perAddress(t, func(addrs []netutil.Addr) func() {
		request := streamRequest(1, 2, AppendRequestFrame(nil, addrs))
		return func() {
			conn.in.Reset(request)
			conn.out = conn.out[:0]
			h.serveStream(st)
			if len(conn.out) != streamHeaderLen+responseFrameLen(len(addrs)) {
				t.Fatalf("%d addresses answered with %d bytes", len(addrs), len(conn.out))
			}
		}
	})
	if per != 0 {
		t.Fatalf("frame in, frame out allocates %.4f per address, want 0", per)
	}
}

// TestUntracedExchangeAllocs: a stream exchange nobody traces costs the
// node no allocation at all, not merely none per address: no span, no
// context, no attribute. The site's first untraced request is sampled,
// and it is the only one of RootSampleEvery the ring sees; every one
// feeds the span's count.
func TestUntracedExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	h := &BatchHandler{
		Table:     fixtureTables()[0],
		BatchSpan: obsv.RootSpan("test.untraced.batch"),
		TableSpan: obsv.ChildSpan("test.untraced.table"),
		SpanAttrs: []obsv.Attr{{Key: "shard", Value: "0"}},
		Batches:   new(obsv.Counter),
		Addrs:     new(obsv.Counter),
	}
	conn := &scriptConn{}
	st := &nodeStream{conn: conn}
	addrs := fixtureProbes(170)
	// A zero trace ID is an untraced exchange; the span-ID slot is the
	// router's exchange number, which the node only echoes.
	request := streamRequest(0, 7, AppendRequestFrame(nil, addrs))
	exchange := func() {
		conn.in.Reset(request)
		conn.out = conn.out[:0]
		h.serveStream(st)
		if len(conn.out) != streamHeaderLen+responseFrameLen(len(addrs)) {
			t.Fatalf("%d addresses answered with %d bytes", len(addrs), len(conn.out))
		}
	}
	recorded := func() (n int) {
		for _, rec := range obsv.DefaultRing.Snapshot() {
			if rec.Name == "test.untraced.batch" || rec.Name == "test.untraced.table" {
				n++
			}
		}
		return n
	}
	exchange() // sampled, and grows the stream's scratch
	if n := recorded(); n != 2 {
		t.Fatalf("the sampled exchange recorded %d spans, want its batch and table spans", n)
	}
	// AllocsPerRun adds a warm-up run: requests 2 to RootSampleEvery.
	if allocs := testing.AllocsPerRun(obsv.RootSampleEvery-2, exchange); allocs != 0 {
		t.Fatalf("an untraced exchange allocates %.2f times on the node, want 0", allocs)
	}
	if n := recorded(); n != 2 {
		t.Fatalf("%d spans recorded after %d untraced exchanges, want the sampled one's 2", n, obsv.RootSampleEvery)
	}
	for _, name := range []string{"test.untraced.batch", "test.untraced.table"} {
		if got := obsv.Default.Counter(name + ".count").Value(); got != obsv.RootSampleEvery {
			t.Fatalf("%s.count = %d after %d exchanges", name, got, obsv.RootSampleEvery)
		}
	}
}

func TestRouterScatterRenderAllocsPerAddress(t *testing.T) {
	// Router and nodes run in this process, joined by pipes, so the count
	// covers both sides of every exchange. The batches are traced, so every
	// run builds the same spans: untraced, a run builds them only when
	// sampled, and the two sizes' constants would not cancel.
	rt, _, _ := newPipeRouter(t)
	traced := obsv.ContextWithSpan(context.Background(), obsv.SpanContext{TraceID: 1, SpanID: 2})
	per := perAddress(t, func(addrs []netutil.Addr) func() {
		return func() {
			sc := getScratch()
			rt.route(traced, sc, addrs)
			sc.out = appendRoutedJSON(sc.out[:0], rt.cfg.Map, addrs, sc.rows, sc.reports)
			if bytes.Contains(sc.out, []byte(`"degradation"`)) {
				t.Fatalf("healthy cluster degraded: %.300s", sc.out)
			}
			putScratch(sc)
		}
	})
	if per != 0 {
		t.Fatalf("fan-out, exchange, scatter and render allocate %.4f per address, want 0", per)
	}
}

func TestParseAddrListAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var body []byte
	for _, a := range fixtureProbes(170) {
		body = append(a.Append(body), '\n')
	}
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body)
		if addrs, err := ParseAddrList(r, DefaultMaxBatch); err != nil || len(addrs) != 510 {
			t.Fatalf("%d addresses, %v", len(addrs), err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ParseAddrList allocates %.0f times per call, want the result slice only", allocs)
	}
}
