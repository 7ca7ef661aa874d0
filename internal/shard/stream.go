package shard

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netaware/netcluster/internal/obsv"
)

// The batch stream is the connection a Router and a node exchange batch
// frames (frame.go) on. The router opens it as an HTTP/1.1 upgrade on the
// node's ordinary listener,
//
//	GET /cluster/stream HTTP/1.1
//	Connection: Upgrade
//	Upgrade: netcluster-batch
//
// the node answers 101 Switching Protocols and takes the connection over,
// and from then on the two speak strictly request → answer, one exchange
// at a time, each message written with a single Write. All integers are
// little-endian.
//
//	request  offset 0   trace id uint64 ┐ the span the exchange runs under;
//	                8   span id  uint64 ┘ trace id zero = none
//	                16  request frame, 8+4n bytes
//
//	answer   offset 0   the request's 16 header bytes, echoed
//	                16  response frame, 16+6n bytes
//	         or     16  error frame: magic "NCE1"
//	                20  status         uint16 (an HTTP status code)
//	                22  message length uint16 (at most 512)
//	                24  message
//
// The echo ties an answer to its request: the header never repeats on a
// connection — a traced exchange carries its own span's ID, an untraced
// one a zero trace ID and the router's exchange number — and an answer
// nobody asked for — a duplicate, or bytes left over from an exchange
// that went wrong — cannot pass for the next one. A node answers with an
// error frame and keeps the stream only for 503 (no batch slot free: the
// request was read whole and the stream is still in step); after a
// refusal for size or form it closes, because what follows the header
// cannot be skipped on trust.

const (
	// StreamPath is where a node serves the batch-stream upgrade.
	StreamPath = "/cluster/stream"

	streamProtocol  = "netcluster-batch"
	streamHeaderLen = 16

	errorMagic      = "NCE1"
	errorHeaderLen  = 8
	maxErrorMessage = 512
)

const (
	streamUpgrade = "GET " + StreamPath + " HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: " + streamProtocol + "\r\n\r\n"
	streamAccept  = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + streamProtocol + "\r\n\r\n"
)

// appendErrorFrame appends the error frame for status and msg to dst,
// cutting msg at maxErrorMessage bytes.
func appendErrorFrame(dst []byte, status int, msg string) []byte {
	msg = msg[:min(len(msg), maxErrorMessage)]
	dst = append(dst, errorMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(status))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// A nodeStream's state. The stream moves itself between idle and busy;
// Shutdown moves it to ending from either, closing an idle stream at once
// and leaving a busy one to close behind its answer.
const (
	streamIdle   int32 = iota // waiting for a request
	streamBusy                // between a request's header and its answer
	streamEnding              // shut down: closed already, or once it has answered
)

// nodeStream is one taken-over connection on the node side.
type nodeStream struct {
	conn  net.Conn
	state atomic.Int32
	head  [streamHeaderLen + requestHeaderLen]byte // the request being served, up to its count
	sc    scratch

	// Requests are read through in, so that one that has arrived whole
	// takes one read. A read asks for ahead bytes: as much as the largest
	// request the stream has carried, within the body limit. A stream's
	// first read so takes a header alone, and no read asks for more than a
	// request within the limits took. in[r:w] is read and not yet served.
	in    [4096]byte
	r, w  int
	ahead int
}

// Read is the request loop's read: from in while it holds bytes, else
// one read of the connection for up to ahead bytes, or straight into p
// when p takes that much.
func (st *nodeStream) Read(p []byte) (int, error) {
	if st.r == st.w {
		if len(p) >= st.ahead {
			return st.conn.Read(p)
		}
		// A connection's error recurs on the next read, so bytes that
		// come with one are served first.
		n, err := st.conn.Read(st.in[:st.ahead])
		if n == 0 {
			return 0, err
		}
		st.r, st.w = 0, n
	}
	n := copy(p, st.in[st.r:st.w])
	st.r += n
	return n, nil
}

// streamSet is the streams a BatchHandler is serving. net/http forgets a
// connection once it is hijacked — Server.Shutdown and Close neither wait
// for it nor close it — so the handler keeps its own books.
type streamSet struct {
	mu      sync.Mutex
	closed  bool
	open    map[*nodeStream]struct{}
	drained chan struct{} // closed when a shut-down set empties
}

func (s *streamSet) shutDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// add registers st, or reports false once Shutdown has begun.
func (s *streamSet) add(st *nodeStream) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.open == nil {
		s.open = make(map[*nodeStream]struct{})
	}
	s.open[st] = struct{}{}
	return true
}

func (s *streamSet) remove(st *nodeStream) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.open, st)
	if s.closed && len(s.open) == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
}

// Shutdown ends the handler's batch streams: no new one is accepted, an
// idle one is closed at once, and one in the middle of an exchange sends
// its answer and then closes. It returns when every stream has ended, or
// closes what is left and returns ctx's error when ctx is done first. A
// server that mounts the handler calls it beside http.Server.Shutdown or
// Close, which do not see hijacked connections.
func (h *BatchHandler) Shutdown(ctx context.Context) error {
	s := &h.streams
	s.mu.Lock()
	s.closed = true
	for st := range s.open {
		// The stream itself only moves between idle and busy, so one of
		// the swaps lands — unless an earlier Shutdown's did.
		for st.state.Load() != streamEnding {
			if st.state.CompareAndSwap(streamIdle, streamEnding) {
				st.conn.Close()
			} else {
				st.state.CompareAndSwap(streamBusy, streamEnding)
			}
		}
	}
	if len(s.open) == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.drained == nil {
		s.drained = make(chan struct{})
	}
	drained := s.drained
	s.mu.Unlock()

	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for st := range s.open {
		st.conn.Close()
	}
	s.mu.Unlock()
	return ctx.Err()
}

// ServeStream answers the batch-stream upgrade on StreamPath: it takes
// the connection over and serves exchanges on it until the router hangs
// up, the stream falls out of step, or Shutdown ends it.
func (h *BatchHandler) ServeStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.EqualFold(r.Header.Get("Upgrade"), streamProtocol) ||
		!strings.Contains(strings.ToLower(r.Header.Get("Connection")), "upgrade") {
		w.Header().Set("Upgrade", streamProtocol)
		http.Error(w, "upgrade to "+streamProtocol+" to open a batch stream", http.StatusUpgradeRequired)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "connection cannot be taken over", http.StatusInternalServerError)
		return
	}
	if h.streams.shutDown() {
		http.Error(w, "node is shutting down", http.StatusServiceUnavailable)
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer conn.Close()
	st := &nodeStream{conn: conn}
	// The router sends nothing until it has read the 101, so bytes already
	// buffered are a stream out of step before it began; and a Shutdown
	// that started since the check above gets its close.
	if rw.Reader.Buffered() != 0 || !h.streams.add(st) {
		return
	}
	defer h.streams.remove(st)
	// net/http may have left its own deadlines on the connection.
	if conn.SetDeadline(time.Time{}) != nil {
		return
	}
	if _, err := io.WriteString(conn, streamAccept); err != nil {
		return
	}
	h.serveStream(st)
}

// serveStream is the node's side of the stream: read a request header,
// serve the request, write the answer, repeat. The stream's scratch lives
// as long as the connection, so a steady run of batches allocates nothing
// per address.
func (h *BatchHandler) serveStream(st *nodeStream) {
	for {
		if _, err := io.ReadFull(st, st.head[:]); err != nil {
			return
		}
		if !st.state.CompareAndSwap(streamIdle, streamBusy) {
			return // Shutdown closed the connection under the read
		}
		keep := h.serveRequest(st)
		// The answer goes out once the request's span has ended and its
		// slot is free, as net/http flushes a response after the handler
		// returns: whoever reads the answer finds the span recorded.
		if len(st.sc.out) > 0 {
			if _, err := st.conn.Write(st.sc.out); err != nil {
				return
			}
		}
		if st.sc.size() > maxPooledScratch {
			st.sc = scratch{} // as putScratch: an outsized batch must not pin its memory
		}
		if !keep || !st.state.CompareAndSwap(streamBusy, streamIdle) {
			return
		}
	}
}

// serveRequest serves the request whose header is in st.head, leaves the
// answer in st.sc.out — empty when the router hung up mid-request — and
// reports whether the stream is still in step behind it. The pipeline is
// ServeHTTP's, with the refusals that need no body taken before the body
// is read.
func (h *BatchHandler) serveRequest(st *nodeStream) (keep bool) {
	sc := &st.sc
	sc.out = sc.out[:0]
	echo, frame := st.head[:streamHeaderLen], st.head[streamHeaderLen:]
	ctx := context.Background()
	parent := obsv.SpanContext{TraceID: binary.LittleEndian.Uint64(echo), SpanID: binary.LittleEndian.Uint64(echo[8:])}
	if parent.Valid() {
		ctx = obsv.ContextWithSpan(ctx, parent)
	}
	ctx, span := h.startSpan(ctx)
	defer span.End()

	lim := h.limits()
	n := int64(binary.LittleEndian.Uint32(frame[4:]))
	var err error
	switch {
	case string(frame[:4]) != requestMagic:
		err = errRequestMagic
	case n > int64(lim.MaxBatch):
		err = errBatchTooLarge
	case requestHeaderLen+4*n > lim.MaxBody:
		err = errBodyTooLarge
	}
	if err != nil {
		return st.refuse(&span, err, lim)
	}
	// A batch refused for want of a slot is still read whole — it is
	// within the limits — so the router can retry on the same stream.
	admitted := h.Admission == nil || h.Admission.TryAcquire()
	if admitted && h.Admission != nil {
		defer h.Admission.Release()
	}
	sc.body = resize(sc.body, requestFrameLen(int(n)))
	copy(sc.body, frame)
	if _, err := io.ReadFull(st, sc.body[requestHeaderLen:]); err != nil {
		span.Fail(err)
		return false
	}
	st.ahead = max(st.ahead, min(streamHeaderLen+len(sc.body), len(st.in), int(lim.MaxBody)))
	if !admitted {
		span.Fail(errNoCapacity)
		sc.out = appendErrorFrame(append(sc.out, echo...), http.StatusServiceUnavailable, errNoCapacity.Error())
		return true
	}
	h.Batches.Inc()
	if sc.addrs, err = DecodeRequestFrame(sc.body, lim.MaxBatch, sc.addrs); err != nil {
		return st.refuse(&span, err, lim)
	}
	gen := h.resolve(ctx, &span, sc)
	sc.out = AppendResponseFrame(append(sc.out, echo...), gen, sc.rows)
	return true
}

// refuse answers a request the stream cannot go on behind — what follows
// its header cannot be skipped on trust — and reports false: not in step.
func (st *nodeStream) refuse(span *obsv.LazySpan, err error, lim Limits) bool {
	span.Fail(err)
	status, msg := refusal(err, lim)
	st.sc.out = appendErrorFrame(append(st.sc.out, st.head[:streamHeaderLen]...), status, msg)
	return false
}
