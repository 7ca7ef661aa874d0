package faultnet

import (
	"net"
	"time"
)

// errReset is the failure surfaced by an injected connection reset. It
// reports Timeout() false: a reset is a transport error, not a missed
// deadline.
type errReset struct{ op string }

func (e errReset) Error() string   { return "faultnet: injected connection reset during " + e.op }
func (e errReset) Timeout() bool   { return false }
func (e errReset) Temporary() bool { return true }

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
		time.Sleep(3 * f.Latency)
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
