package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
)

// scriptConn is a connection whose peer already said everything it will:
// reads come out of a byte slice and then hit EOF, writes pile up. It lets
// a test or the fuzzer run the node's stream loop on the calling
// goroutine and look at what it did. maxRead is the largest buffer a
// Read was handed.
type scriptConn struct {
	net.Conn // nil: the loop uses Read, Write and Close only
	in       bytes.Reader
	out      []byte
	maxRead  int
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.maxRead = max(c.maxRead, len(p))
	return c.in.Read(p)
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	return len(p), nil
}

func (c *scriptConn) Close() error { return nil }

// streamRequest is one request message: header, then the frame.
func streamRequest(traceID, spanID uint64, frame []byte) []byte {
	msg := binary.LittleEndian.AppendUint64(nil, traceID)
	msg = binary.LittleEndian.AppendUint64(msg, spanID)
	return append(msg, frame...)
}

// nextAnswer splits the first answer off a node's output and checks its
// form: the 16 bytes of echo, then a whole response frame or a whole
// error frame. status is 0 for a response frame.
func nextAnswer(t testing.TB, out []byte) (echo, frame []byte, status int, rest []byte) {
	t.Helper()
	if len(out) < streamHeaderLen+errorHeaderLen {
		t.Fatalf("answer of %d bytes: %x", len(out), out)
	}
	echo, body := out[:streamHeaderLen], out[streamHeaderLen:]
	var size int
	switch string(body[:4]) {
	case responseMagic:
		size = responseFrameLen(int(binary.LittleEndian.Uint32(body[4:])))
	case errorMagic:
		status = int(binary.LittleEndian.Uint16(body[4:]))
		size = errorHeaderLen + int(binary.LittleEndian.Uint16(body[6:]))
		if status < 400 || status > 599 || size > errorHeaderLen+maxErrorMessage {
			t.Fatalf("error frame with status %d and %d bytes", status, size)
		}
	default:
		t.Fatalf("answer starts %q", body[:4])
	}
	if len(body) < size {
		t.Fatalf("answer declares %d bytes, %d written", size, len(body))
	}
	return echo, body[:size], status, body[size:]
}

// capOne admits one batch at a time and counts refusals.
type capOne struct{ held, refused int }

func (a *capOne) TryAcquire() bool {
	if a.held > 0 {
		a.refused++
		return false
	}
	a.held++
	return true
}

func (a *capOne) Release() { a.held-- }

// TestServeStreamAnswers drives the node's loop with one scripted
// conversation per rule: what is answered, with what, and whether the
// stream goes on afterwards.
func TestServeStreamAnswers(t *testing.T) {
	table := fixtureTables()[0]
	probe := []netutil.Addr{netutil.MustParseAddr("10.1.2.3"), netutil.MustParseAddr("11.1.2.3")}
	good := streamRequest(7, 9, AppendRequestFrame(nil, probe))
	lim := Limits{MaxBatch: 3, MaxBody: 64}
	handler := func() *BatchHandler {
		return &BatchHandler{Table: table, Batches: new(obsv.Counter), Addrs: new(obsv.Counter), Limits: lim}
	}
	wantGood := func(t *testing.T, echo, frame []byte, status int) {
		t.Helper()
		matches, gen, err := DecodeResponseFrame(frame, len(probe), nil)
		if status != 0 || err != nil || !bytes.Equal(echo, good[:streamHeaderLen]) {
			t.Fatalf("status %d, echo %x, %v", status, echo, err)
		}
		if gen != table.Generation() || matches[0].Prefix != netutil.MustParsePrefix("10.0.0.0/8") || !matches[1].Prefix.IsZero() {
			t.Fatalf("answered %+v at generation %d", matches, gen)
		}
	}

	t.Run("two batches", func(t *testing.T) {
		conn := &scriptConn{}
		conn.in.Reset(append(append([]byte(nil), good...), good...))
		handler().serveStream(&nodeStream{conn: conn})
		echo, frame, status, rest := nextAnswer(t, conn.out)
		wantGood(t, echo, frame, status)
		echo, frame, status, rest = nextAnswer(t, rest)
		wantGood(t, echo, frame, status)
		if len(rest) != 0 {
			t.Fatalf("%d bytes after the second answer", len(rest))
		}
	})

	// A refusal for size or form ends the stream: the good request behind
	// it is never read, and nothing past the limits is asked for.
	over := AppendRequestFrame(nil, []netutil.Addr{1, 2, 3, 4})
	huge := binary.LittleEndian.AppendUint32([]byte(requestMagic), 1<<32-1)
	for _, tc := range []struct {
		name    string
		lim     Limits
		request []byte
		status  int
		msg     string
	}{
		{"batch over limit", lim, streamRequest(7, 9, over), 413, "batch exceeds 3 addresses"},
		{"count 2^32-1", lim, streamRequest(7, 9, huge), 413, "batch exceeds 3 addresses"},
		{"body over limit", Limits{MaxBatch: 100, MaxBody: 23}, streamRequest(0, 0, over), 413, "body exceeds 23 bytes"},
		{"wrong magic", lim, streamRequest(7, 9, AppendResponseFrame(nil, 0, nil)), 400, errRequestMagic.Error()},
		{"text", lim, []byte("10.1.2.3\n11.1.2.3\n10.9.9.9\n"), 400, errRequestMagic.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := handler()
			h.Limits = tc.lim
			conn := &scriptConn{}
			conn.in.Reset(append(append([]byte(nil), tc.request...), good...))
			h.serveStream(&nodeStream{conn: conn})
			echo, frame, status, rest := nextAnswer(t, conn.out)
			if status != tc.status || string(frame[errorHeaderLen:]) != tc.msg || !bytes.Equal(echo, tc.request[:streamHeaderLen]) {
				t.Fatalf("answered %d %q, want %d %q", status, frame[errorHeaderLen:], tc.status, tc.msg)
			}
			if len(rest) != 0 {
				t.Fatalf("the stream went on after a %d: %x", status, rest)
			}
			if conn.maxRead > streamHeaderLen+requestHeaderLen {
				t.Fatalf("a Read asked for %d bytes: the refused body was read", conn.maxRead)
			}
		})
	}

	t.Run("no slot", func(t *testing.T) {
		// Refused for want of a slot, the batch is still read whole, so the
		// next request on the stream is answered.
		h, gate := handler(), &capOne{held: 1}
		h.Admission = gate
		conn := &scriptConn{}
		conn.in.Reset(good)
		st := &nodeStream{conn: conn}
		h.serveStream(st)
		echo, frame, status, rest := nextAnswer(t, conn.out)
		if status != http.StatusServiceUnavailable || string(frame[errorHeaderLen:]) != errNoCapacity.Error() ||
			!bytes.Equal(echo, good[:streamHeaderLen]) || len(rest) != 0 || gate.refused != 1 {
			t.Fatalf("answered %d %q, %d refusals", status, frame[errorHeaderLen:], gate.refused)
		}
		gate.held = 0
		conn.in.Reset(good)
		conn.out = conn.out[:0]
		h.serveStream(st)
		echo, frame, status, _ = nextAnswer(t, conn.out)
		wantGood(t, echo, frame, status)
		if gate.held != 0 {
			t.Fatal("the slot was not released")
		}
	})

	t.Run("hang-up mid-request", func(t *testing.T) {
		for _, n := range []int{1, streamHeaderLen + 3, len(good) - 1} {
			conn := &scriptConn{}
			conn.in.Reset(good[:n])
			handler().serveStream(&nodeStream{conn: conn})
			if len(conn.out) != 0 {
				t.Fatalf("%d of %d request bytes were answered: %x", n, len(good), conn.out)
			}
		}
	})
}

// upgradeOn performs the router's handshake on conn.
func upgradeOn(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := upgrade(conn, "node"); err != nil {
		t.Fatal(err)
	}
}

// blockingTable holds every LookupBatch until released.
type blockingTable struct {
	TableSource
	entered, release chan struct{}
}

func (b *blockingTable) LookupBatch(addrs []netutil.Addr, dst []bgp.Match) ([]bgp.Match, uint64) {
	b.entered <- struct{}{}
	<-b.release
	return b.TableSource.LookupBatch(addrs, dst)
}

// TestBatchHandlerShutdown: net/http cannot see a hijacked connection, so
// the handler's own Shutdown is what ends batch streams — an idle one at
// once, a busy one behind the answer it owes, all of them when the
// caller's context runs out.
func TestBatchHandlerShutdown(t *testing.T) {
	probe := []netutil.Addr{netutil.MustParseAddr("10.1.2.3")}
	request := streamRequest(1, 2, AppendRequestFrame(nil, probe))
	answerLen := streamHeaderLen + responseFrameLen(len(probe))
	table := &blockingTable{TableSource: fixtureTables()[0], entered: make(chan struct{}), release: make(chan struct{})}
	newNode := func(t *testing.T) (*BatchHandler, *httptest.Server) {
		node := testNode(table, 0)
		srv := httptest.NewServer(mount(node))
		t.Cleanup(srv.Close)
		return node, srv
	}
	dial := func(t *testing.T, srv *httptest.Server) net.Conn {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		upgradeOn(t, conn)
		return conn
	}
	wantEOF := func(t *testing.T, conn net.Conn) {
		t.Helper()
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Fatalf("read %d bytes, %v; want the stream closed", n, err)
		}
	}

	t.Run("idle and busy", func(t *testing.T) {
		node, srv := newNode(t)
		idle, busy := dial(t, srv), dial(t, srv)
		if _, err := busy.Write(request); err != nil {
			t.Fatal(err)
		}
		<-table.entered

		// http.Server.Close leaves both streams standing.
		srv.Config.Close()
		done := make(chan error, 1)
		go func() { done <- node.Shutdown(context.Background()) }()
		wantEOF(t, idle)
		select {
		case err := <-done:
			t.Fatalf("Shutdown returned %v with an exchange in flight", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(table.release)
		answer := make([]byte, answerLen)
		if _, err := io.ReadFull(busy, answer); err != nil {
			t.Fatalf("the exchange in flight was cut: %v", err)
		}
		if _, _, err := DecodeResponseFrame(answer[streamHeaderLen:], len(probe), nil); err != nil {
			t.Fatal(err)
		}
		wantEOF(t, busy)
		if err := <-done; err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if err := node.Shutdown(context.Background()); err != nil {
			t.Fatalf("second Shutdown: %v", err)
		}
	})

	t.Run("context runs out", func(t *testing.T) {
		table.release = make(chan struct{})
		node, srv := newNode(t)
		busy := dial(t, srv)
		if _, err := busy.Write(request); err != nil {
			t.Fatal(err)
		}
		<-table.entered
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if err := node.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown = %v, want the context's error", err)
		}
		wantEOF(t, busy)
		close(table.release)
	})

	t.Run("refuses new streams", func(t *testing.T) {
		node, srv := newNode(t)
		if err := node.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := upgrade(conn, "node"); err == nil || !strings.Contains(err.Error(), "503 Service Unavailable: node is shutting down") {
			t.Fatalf("upgrade after Shutdown: %v", err)
		}
	})
}

// messageConn is a connection on which each request arrives whole and
// apart, as from a router that waits for each answer: a Read returns at
// most the rest of the current message. reads counts the Reads.
type messageConn struct {
	scriptConn
	msgs  [][]byte
	reads int
}

func (c *messageConn) Read(p []byte) (int, error) {
	c.reads++
	c.maxRead = max(c.maxRead, len(p))
	if len(c.msgs) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.msgs[0])
	if c.msgs[0] = c.msgs[0][n:]; len(c.msgs[0]) == 0 {
		c.msgs = c.msgs[1:]
	}
	return n, nil
}

// TestServeStreamOneReadPerRequest: once a stream has carried a request,
// every request of that size or less that has arrived whole takes one
// read of the connection, not a read for the header and one for the body.
func TestServeStreamOneReadPerRequest(t *testing.T) {
	h := testNode(fixtureTables()[0], 0)
	const requests = 10
	conn := &messageConn{}
	for i := 0; i < requests; i++ {
		// The first request is the largest: every later one fits the
		// read-ahead it sets.
		conn.msgs = append(conn.msgs, streamRequest(1, uint64(i), AppendRequestFrame(nil, fixtureProbes(200-i))))
	}
	h.serveStream(&nodeStream{conn: conn})
	answers := 0
	for rest := conn.out; len(rest) > 0; answers++ {
		_, _, status, r := nextAnswer(t, rest)
		if status != 0 {
			t.Fatalf("answer %d: status %d", answers, status)
		}
		rest = r
	}
	// The first request's header and body, one read each later request,
	// and the read that finds the stream closed.
	if answers != requests || conn.reads != 1+requests+1 {
		t.Fatalf("%d answers took %d reads, want %d answers in %d", answers, conn.reads, requests, requests+2)
	}
}

// TestServeStreamUpgrade: the endpoint speaks only the upgrade.
func TestServeStreamUpgrade(t *testing.T) {
	srv := httptest.NewServer(mount(testNode(fixtureTables()[0], 0)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + StreamPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != streamProtocol {
		t.Fatalf("plain GET: %s, Upgrade %q", resp.Status, resp.Header.Get("Upgrade"))
	}
}

// FuzzServeStream feeds the node's loop arbitrary bytes as everything a
// router ever sent. Whatever they are: no panic; no Read asks for more
// than the limits allow a request to take; every answer is the echo of
// the header it answers and a whole response or error frame; a response
// frame is the table's answer to the addresses sent; and a refusal that
// leaves the stream out of step is the last thing written.
func FuzzServeStream(f *testing.F) {
	good := streamRequest(7, 9, AppendRequestFrame(nil, frameAddrs))
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), good...))
	f.Add(good[:len(good)-1])
	f.Add(streamRequest(0, 0, AppendRequestFrame(nil, nil)))
	f.Add(streamRequest(1, 1, AppendResponseFrame(nil, 7, frameMatches)))
	for _, frame := range badRequests() {
		f.Add(streamRequest(3, 4, frame))
		f.Add(append(append([]byte(nil), good...), streamRequest(3, 4, frame)...))
	}
	table := fixtureTables()[0]
	lim := Limits{MaxBatch: 64, MaxBody: 200}
	h := &BatchHandler{Table: table, Batches: new(obsv.Counter), Addrs: new(obsv.Counter), Limits: lim}
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &scriptConn{}
		conn.in.Reset(data)
		st := &nodeStream{conn: conn}
		h.serveStream(st)
		if conn.maxRead > int(lim.MaxBody) {
			t.Fatalf("a Read asked for %d bytes, the body limit is %d", conn.maxRead, lim.MaxBody)
		}
		if st.sc.size() > 16*int(lim.MaxBody) {
			t.Fatalf("scratch grew to %d bytes under a %d-byte body limit", st.sc.size(), lim.MaxBody)
		}
		// Walk the input as the conversation it is and hold the output to
		// what each request is owed.
		in, out := data, conn.out
		for len(in) >= len(st.head) {
			request := in[streamHeaderLen:]
			n := int(binary.LittleEndian.Uint32(request[4:]))
			refused := string(request[:4]) != requestMagic || n > lim.MaxBatch || int64(requestFrameLen(n)) > lim.MaxBody
			if !refused && len(request) < requestFrameLen(n) {
				break // the router hung up mid-request: nothing is owed
			}
			echo, frame, status, rest := nextAnswer(t, out)
			if !bytes.Equal(echo, in[:streamHeaderLen]) {
				t.Fatalf("answer with header %x to %x", echo, in[:streamHeaderLen])
			}
			if refused {
				if status != http.StatusRequestEntityTooLarge && status != http.StatusBadRequest || len(rest) != 0 {
					t.Fatalf("refusal answered %d, then %d more bytes", status, len(rest))
				}
				return
			}
			addrs, err := DecodeRequestFrame(request[:requestFrameLen(n)], lim.MaxBatch, nil)
			if err != nil || status != 0 {
				t.Fatalf("a request within the limits answered %d %q (decoder: %v)", status, frame, err)
			}
			want, gen := table.LookupBatch(addrs, nil)
			if !bytes.Equal(frame, AppendResponseFrame(nil, gen, want)) {
				t.Fatalf("answered %x to %v", frame, addrs)
			}
			in, out = request[requestFrameLen(n):], rest
		}
		if len(out) != 0 {
			t.Fatalf("%d bytes written that no request is owed: %x", len(out), out)
		}
	})
}
