package faultnet

import (
	"net"
	"time"
)

// errReset is the failure surfaced by an injected connection reset. It
// reports Timeout() false so retry classifiers treat it as a transient
// transport error distinct from a deadline.
type errReset struct{ op string }

func (e errReset) Error() string   { return "faultnet: injected connection reset during " + e.op }
func (e errReset) Timeout() bool   { return false }
func (e errReset) Temporary() bool { return true }

// PacketConn wraps a UDP (or any packet) endpoint with the injector's
// profile. Inbound faults apply to ReadFrom, outbound to WriteTo.
func (i *Injector) PacketConn(inner net.PacketConn) net.PacketConn {
	return &packetConn{PacketConn: inner, inj: i}
}

type packetConn struct {
	net.PacketConn
	inj *Injector
}

// ReadFrom delivers the next surviving datagram: dropped datagrams are
// consumed and skipped (the deadline on the underlying conn still
// bounds the wait), surviving ones may be delayed, truncated or
// corrupted before delivery.
func (c *packetConn) ReadFrom(b []byte) (int, net.Addr, error) {
	for {
		n, addr, err := c.PacketConn.ReadFrom(b)
		if err != nil {
			return n, addr, err
		}
		c.inj.countOp()
		f := c.inj.inbound()
		if c.inj.roll(f.Drop) {
			c.inj.count(&c.inj.stats.Drops)
			continue
		}
		c.inj.delaySync(f)
		if c.inj.roll(f.Truncate) {
			c.inj.count(&c.inj.stats.Truncates)
			n = c.inj.truncLen(n)
		}
		if c.inj.roll(f.Corrupt) {
			c.inj.corrupt(b[:n])
		}
		return n, addr, nil
	}
}

// WriteTo emits the datagram under outbound faults. Drops report success
// (the network swallowed it — the sender cannot tell); delayed datagrams
// are delivered asynchronously so a slow response can arrive after the
// peer timed out and retried; duplicates are sent twice.
func (c *packetConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	c.inj.countOp()
	f := c.inj.outbound()
	if c.inj.roll(f.Drop) {
		c.inj.count(&c.inj.stats.Drops)
		return len(b), nil
	}
	pkt := b
	if c.inj.roll(f.Truncate) {
		c.inj.count(&c.inj.stats.Truncates)
		pkt = pkt[:c.inj.truncLen(len(pkt))]
	}
	if c.inj.roll(f.Corrupt) {
		cp := make([]byte, len(pkt))
		copy(cp, pkt)
		c.inj.corrupt(cp)
		pkt = cp
	}
	sends := 1
	if c.inj.roll(f.Dup) {
		c.inj.count(&c.inj.stats.Dups)
		sends = 2
	}
	if d := c.inj.latency(f); d > 0 {
		c.inj.count(&c.inj.stats.Delays)
		// Deliver late without blocking the caller: copy, then send after d.
		cp := make([]byte, len(pkt))
		copy(cp, pkt)
		for s := 0; s < sends; s++ {
			time.AfterFunc(d, func() {
				c.PacketConn.WriteTo(cp, addr) // best effort; peer may be gone
			})
		}
		return len(b), nil
	}
	var err error
	for s := 0; s < sends; s++ {
		_, err = c.PacketConn.WriteTo(pkt, addr)
	}
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// Conn wraps a stream connection with the injector's profile. TCP
// retransmits lost segments, so Drop appears as extra latency
// (3×Latency) rather than silent loss; Reset closes the connection and
// surfaces a reset error; Truncate delivers a prefix then closes
// (premature EOF).
func (i *Injector) Conn(inner net.Conn) net.Conn {
	return &conn{Conn: inner, inj: i}
}

type conn struct {
	net.Conn
	inj *Injector
}

func (c *conn) fault(f Faults, op string) error {
	if c.inj.roll(f.Reset) {
		c.inj.count(&c.inj.stats.Resets)
		c.Conn.Close()
		return errReset{op: op}
	}
	c.inj.delaySync(f)
	if c.inj.roll(f.Drop) {
		// Simulated segment loss: the transport recovers by retransmission,
		// which the application only observes as added delay.
		c.inj.count(&c.inj.stats.Drops)
		c.inj.sleep(3 * f.Latency)
	}
	return nil
}

func (c *conn) Read(b []byte) (int, error) {
	c.inj.countOp()
	f := c.inj.inbound()
	if err := c.fault(f, "read"); err != nil {
		return 0, err
	}
	n, err := c.Conn.Read(b)
	if err != nil {
		return n, err
	}
	if c.inj.roll(f.Truncate) {
		c.inj.count(&c.inj.stats.Truncates)
		n = c.inj.truncLen(n)
		c.Conn.Close() // premature EOF after the prefix
	}
	if c.inj.roll(f.Corrupt) {
		c.inj.corrupt(b[:n])
	}
	return n, err
}

func (c *conn) Write(b []byte) (int, error) {
	c.inj.countOp()
	f := c.inj.outbound()
	if err := c.fault(f, "write"); err != nil {
		return 0, err
	}
	if c.inj.roll(f.Corrupt) {
		cp := make([]byte, len(b))
		copy(cp, b)
		c.inj.corrupt(cp)
		n, err := c.Conn.Write(cp)
		if err != nil {
			return n, err
		}
		return len(b), nil
	}
	return c.Conn.Write(b)
}
