package shard

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

// pipeNet is the batch stream without sockets: its dial method, set as
// RouterConfig.Dial, hands the router one end of a net.Pipe and the node
// registered under that host:port the other. Everything between the two
// ends is the product's own code — the upgrade through a real
// http.Server, the hijack, the exchange loops — so allocation counts
// through it are the product's, and a test can stand a tamperer in a
// node's place that edits what the node "sent" before the router reads
// it.
type pipeNet struct {
	nodes map[string]func(net.Conn) // by host:port; called on its own goroutine per connection
	dials atomic.Int64
}

func (pn *pipeNet) dial(_ context.Context, addr string) (net.Conn, error) {
	serve := pn.nodes[addr]
	if serve == nil {
		return nil, fmt.Errorf("pipenet: no node at %q", addr)
	}
	pn.dials.Add(1)
	router, node := net.Pipe()
	go serve(node)
	return router, nil
}

// pipeListener feeds an http.Server the node ends of dialed pipes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// servePipes runs h behind a real http.Server fed from pipes and returns
// the function that hands it a connection. shutdown, when set, ends the
// handler's batch streams with the server.
func servePipes(t testing.TB, h http.Handler, shutdown func(context.Context) error) func(net.Conn) {
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		if shutdown != nil {
			shutdown(killed())
		}
	})
	return func(c net.Conn) {
		select {
		case ln.conns <- c:
		case <-ln.done:
			c.Close()
		}
	}
}

// tamperer stands between the router and a real node and edits the
// node's side of the conversation. It relays message by message, relying
// on two things the stream promises and net.Pipe preserves: each side
// writes a message with one Write, and nobody speaks out of turn.
type tamperer struct {
	node func(net.Conn) // the real node
	// handshake, when set, replaces the relay of the node's answer to the
	// upgrade request; answer the same for exchange number n (from 1).
	// Each writes what the router should see to w and reports whether to
	// hang up afterwards.
	handshake func(w io.Writer, resp []byte) (hangUp bool)
	answer    func(w io.Writer, n int, ans []byte) (hangUp bool)
}

func (tp *tamperer) serve(router net.Conn) {
	defer router.Close()
	near, far := net.Pipe()
	defer near.Close()
	go tp.node(far)
	buf := make([]byte, 1<<20)
	for n := 0; ; n++ {
		k, err := router.Read(buf)
		if err != nil {
			return
		}
		if _, err := near.Write(buf[:k]); err != nil {
			return
		}
		if k, err = near.Read(buf); err != nil {
			return
		}
		msg, hangUp := append([]byte(nil), buf[:k]...), false
		switch {
		case n == 0 && tp.handshake != nil:
			hangUp = tp.handshake(router, msg)
		case n > 0 && tp.answer != nil:
			hangUp = tp.answer(router, n, msg)
		default:
			_, err = router.Write(msg)
		}
		if hangUp || err != nil {
			return
		}
	}
}
