package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// tcpPair returns an accept function whose server-side conns carry the
// injector's profile, and a dialer for plain client conns.
func tcpPair(t *testing.T, inj *Injector) (accept func() (net.Conn, error), dial func() net.Conn) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inner.Close() })
	accept = func() (net.Conn, error) {
		c, err := inner.Accept()
		if err != nil {
			return nil, err
		}
		return inj.Conn(c), nil
	}
	dial = func() net.Conn {
		c, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	return accept, dial
}

func TestStreamEcho(t *testing.T) {
	inj := New(Profile{Seed: 2}) // no faults: transparent wrapper
	accept, dial := tcpPair(t, inj)
	go func() {
		c, err := accept()
		if err != nil {
			return
		}
		io.Copy(c, c)
		c.Close()
	}()
	c := dial()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo = %q err=%v", buf, err)
	}
}

func TestStreamReset(t *testing.T) {
	inj := New(Profile{Seed: 2, Inbound: Faults{Reset: 1}})
	accept, dial := tcpPair(t, inj)
	errc := make(chan error, 1)
	go func() {
		c, err := accept()
		if err != nil {
			errc <- err
			return
		}
		_, err = c.Read(make([]byte, 16))
		errc <- err
	}()
	c := dial()
	c.Write([]byte("doomed"))
	err := <-errc
	var ne net.Error
	if err == nil || !errors.As(err, &ne) || ne.Timeout() {
		t.Fatalf("want non-timeout net.Error reset, got %v", err)
	}
	if inj.Stats().Resets != 1 {
		t.Fatalf("stats = %+v", inj.Stats())
	}
}

func TestStreamTruncatePrematureEOF(t *testing.T) {
	inj := New(Profile{Seed: 9, Inbound: Faults{Truncate: 1}})
	accept, dial := tcpPair(t, inj)
	got := make(chan []byte, 1)
	go func() {
		c, err := accept()
		if err != nil {
			got <- nil
			return
		}
		data, _ := io.ReadAll(c)
		got <- data
	}()
	c := dial()
	full := bytes.Repeat([]byte("x"), 1024)
	c.Write(full)
	c.Close()
	data := <-got
	if len(data) >= len(full) || len(data) < 1 {
		t.Fatalf("truncated stream delivered %d bytes, want 1..%d", len(data), len(full)-1)
	}
}

// TestSeededDeterminism: two injectors with the same seed make identical
// marginal decisions when driven identically.
func TestSeededDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		inj := New(Profile{Seed: seed, Inbound: Faults{Drop: 0.3}})
		out := make([]bool, 200)
		for i := range out {
			out[i] = inj.roll(inj.prof.Inbound.Drop)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged under identical seeds", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should (overwhelmingly) differ")
	}
}

func TestLossyProfileRates(t *testing.T) {
	inj := New(Profile{Seed: 11, Inbound: Faults{Drop: 0.2, Jitter: 50 * time.Millisecond}})
	drops := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if inj.roll(inj.prof.Inbound.Drop) {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.17 || rate > 0.23 {
		t.Fatalf("empirical drop rate %.3f far from 0.2", rate)
	}
}
