package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
)

// The router's side of the batch stream (stream.go): a stack of idle
// connections per shard, the upgrade handshake, and one exchange.

// shardIdleConns is how many idle batch streams the router keeps per
// shard. Every in-flight batch occupies one connection to each shard it
// touches; past the cap a finished exchange closes its connection, and
// the next burst dials again.
const shardIdleConns = 64

// shardIdleTimeout is how long a connection may sit unused before the
// router closes it, so the streams a burst opened do not hold a socket
// and a node goroutine for ever.
const shardIdleTimeout = 90 * time.Second

// maxHandshake bounds the node's answer to the upgrade request.
const maxHandshake = 4 << 10

// shardConns is one shard's idle batch streams. It is a stack: the most
// recently used connection is reused first, so the working set stays as
// small as the load allows and the rest age out from the bottom.
type shardConns struct {
	mu     sync.Mutex
	closed bool
	idle   []idleConn
}

type idleConn struct {
	conn  net.Conn
	base  string // the shard address it was dialed for
	since time.Time
}

// get pops the most recently used connection to base, or returns nil. A
// connection dialed for another address — the map was re-pointed — or
// idle past shardIdleTimeout is closed, not returned.
func (p *shardConns) get(base string, now time.Time) net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.idle) > 0 {
		top := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		if top.base == base && now.Sub(top.since) < shardIdleTimeout {
			return top.conn
		}
		top.conn.Close()
	}
	return nil
}

// put returns a connection whose last exchange ended in step. The oldest
// idle connection is dropped when it has aged out: whatever the stack
// holds below the working set leaves one put at a time.
func (p *shardConns) put(conn net.Conn, base string, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) > 0 && now.Sub(p.idle[0].since) >= shardIdleTimeout {
		p.idle[0].conn.Close()
		p.idle = append(p.idle[:0], p.idle[1:]...)
	}
	if p.closed || len(p.idle) >= shardIdleConns {
		conn.Close()
		return
	}
	p.idle = append(p.idle, idleConn{conn, base, now})
}

// close closes every idle connection and makes put close what it is
// handed from now on.
func (p *shardConns) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, c := range p.idle {
		c.conn.Close()
	}
	p.idle = nil
}

// shardHost returns the host:port a shard's base URL names. The batch
// stream runs on plain TCP, so only http:// bases qualify.
func shardHost(base string) (string, error) {
	u, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("shard address %q: %w", base, err)
	}
	if u.Scheme != "http" || u.Host == "" {
		return "", fmt.Errorf("shard address %q is not an http://host:port base URL", base)
	}
	if u.Port() == "" {
		return net.JoinHostPort(u.Hostname(), "80"), nil
	}
	return u.Host, nil
}

// openStream dials base and upgrades the connection to a batch stream,
// all before deadline.
func (rt *Router) openStream(ctx context.Context, base string, deadline time.Time) (net.Conn, error) {
	host, err := shardHost(base)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	conn, err := rt.cfg.Dial(ctx, host)
	if err != nil {
		return nil, err
	}
	if err = conn.SetDeadline(deadline); err == nil {
		err = upgrade(conn, host)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// upgrade asks the node at the other end of conn for a batch stream. Any
// answer but 101 with the stream's protocol name — a node that predates
// the stream answers 404 — is the shard's error.
func upgrade(conn net.Conn, host string) error {
	if _, err := fmt.Fprintf(conn, streamUpgrade, host); err != nil {
		return err
	}
	br := bufio.NewReaderSize(io.LimitReader(conn, maxHandshake), maxHandshake)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return fmt.Errorf("batch stream handshake: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), streamProtocol) {
		reason := resp.Status
		if msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256)); len(bytes.TrimSpace(msg)) > 0 {
			reason += ": " + string(bytes.TrimSpace(msg))
		}
		return fmt.Errorf("shard refused the batch stream: %s", reason)
	}
	if br.Buffered() != 0 {
		return errors.New("batch stream handshake: shard sent data before the first request")
	}
	return nil
}

// exchange runs one request → answer on conn, all before deadline: it
// writes req — stream header and request frame for addrs — and reads the
// answer into buf, which must hold one byte more than the answer takes,
// and decodes it into dst. started reports whether any byte of an answer
// arrived, and inStep whether the exchange ended where the next one can
// begin: after an answer that passed every check, or a whole 503 refusal.
// Anything but the echoed header and the response frame addrs imply is an
// error: a different header, another magic, a count other than
// len(addrs), a short answer, a byte too many, an invalid column, a
// prefix that does not cover its address. An error frame comes back as
// the refusal it carries.
func exchange(conn net.Conn, deadline time.Time, req, buf []byte, addrs []netutil.Addr, dst []bgp.Match) (matches []bgp.Match, gen uint64, started, inStep bool, err error) {
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, 0, false, false, err
	}
	if _, err := conn.Write(req); err != nil {
		return nil, 0, false, false, err
	}
	// The first read takes what has arrived, which is the whole answer
	// when the node wrote it at once. Either kind of frame declares its
	// length in its first eight bytes.
	const head = streamHeaderLen + errorHeaderLen
	full := len(buf) - 1
	got, err := io.ReadAtLeast(conn, buf, head)
	if err != nil {
		return nil, 0, got > 0, false, fmt.Errorf("shard answered %d of %d bytes: %w", got, full, err)
	}
	echo, body := buf[:streamHeaderLen], buf[streamHeaderLen:]
	if !bytes.Equal(echo, req[:streamHeaderLen]) {
		return nil, 0, true, false, fmt.Errorf("shard's answer opens %x, not with the request's header %x", echo, req[:streamHeaderLen])
	}
	switch string(body[:4]) {
	case responseMagic:
	case errorMagic:
		inStep, err = readRefusal(conn, buf, got)
		return nil, 0, true, inStep, err
	default:
		return nil, 0, true, false, errResponseMagic
	}
	if n := binary.LittleEndian.Uint32(body[4:]); int64(n) != int64(len(addrs)) {
		return nil, 0, true, false, fmt.Errorf("batch frame: %d rows for %d addresses", n, len(addrs))
	}
	if got < full {
		// Asking for one byte too many makes the expected outcome "exactly
		// full arrived".
		n, err := io.ReadAtLeast(conn, buf[got:], full-got)
		if got += n; err != nil {
			return nil, 0, true, false, fmt.Errorf("shard answered %d of %d bytes: %w", got, full, err)
		}
	}
	if got > full {
		return nil, 0, true, false, fmt.Errorf("shard answered more than the %d bytes %d addresses take", full, len(addrs))
	}
	if matches, gen, err = DecodeResponseFrame(body[:full-streamHeaderLen], len(addrs), dst); err != nil {
		return nil, 0, true, false, err
	}
	for i, m := range matches {
		if !m.Prefix.IsZero() && !m.Prefix.Contains(addrs[i]) {
			return nil, 0, true, false, fmt.Errorf("batch frame: row %d: %s does not cover %s", i, m.Prefix, addrs[i])
		}
	}
	return matches, gen, true, true, nil
}

// readRefusal reads the rest of the error frame whose first got bytes
// are in buf and returns it as an error: the status line and message the
// same refusal carried when the hop was HTTP. The stream is still in step
// after a whole 503 frame and nothing else.
func readRefusal(conn net.Conn, buf []byte, got int) (inStep bool, err error) {
	const head = streamHeaderLen + errorHeaderLen
	status := int(binary.LittleEndian.Uint16(buf[streamHeaderLen+4:]))
	size := int(binary.LittleEndian.Uint16(buf[streamHeaderLen+6:]))
	if size > maxErrorMessage {
		return false, fmt.Errorf("error frame declares %d message bytes, limit %d", size, maxErrorMessage)
	}
	msg := make([]byte, size)
	have := copy(msg, buf[head:got])
	if n, err := io.ReadFull(conn, msg[have:]); err != nil {
		return false, fmt.Errorf("shard answered %d of %d bytes: %w", got+n, head+size, err)
	}
	return status == http.StatusServiceUnavailable && got <= head+size,
		fmt.Errorf("%d %s: %s", status, http.StatusText(status), bytes.TrimSpace(msg))
}
