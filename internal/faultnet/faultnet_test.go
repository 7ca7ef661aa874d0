package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// udpPair returns a wrapped server-side conn and a plain client conn
// aimed at it.
func udpPair(t *testing.T, inj *Injector) (server net.PacketConn, client *net.UDPConn) {
	t.Helper()
	inner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inner.Close() })
	c, err := net.DialUDP("udp", nil, inner.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return inj.PacketConn(inner), c
}

func TestPacketInboundDrop(t *testing.T) {
	inj := New(Profile{Seed: 1, Inbound: Faults{Drop: 1}})
	server, client := udpPair(t, inj)
	if _, err := client.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	server.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 64)
	_, _, err := server.ReadFrom(buf)
	if err == nil {
		t.Fatal("dropped datagram must not be delivered")
	}
	st := inj.Stats()
	if st.Drops != 1 || st.Ops != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPacketOutboundDropReportsSuccess(t *testing.T) {
	inj := New(Profile{Seed: 1, Outbound: Faults{Drop: 1}})
	server, client := udpPair(t, inj)
	n, err := server.WriteTo([]byte("resp"), client.LocalAddr())
	if err != nil || n != 4 {
		t.Fatalf("drop must look like success, got n=%d err=%v", n, err)
	}
	client.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := client.Read(make([]byte, 64)); err == nil {
		t.Fatal("dropped response must not arrive")
	}
	if inj.Stats().Drops != 1 {
		t.Fatalf("stats = %+v", inj.Stats())
	}
}

func TestPacketDupAndCorrupt(t *testing.T) {
	inj := New(Profile{Seed: 7, Outbound: Faults{Dup: 1}})
	server, client := udpPair(t, inj)
	if _, err := server.WriteTo([]byte("twice"), client.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 2; i++ {
		client.SetReadDeadline(time.Now().Add(time.Second))
		n, err := client.Read(buf)
		if err != nil || string(buf[:n]) != "twice" {
			t.Fatalf("dup copy %d: n=%d err=%v", i, n, err)
		}
	}

	inj2 := New(Profile{Seed: 7, Inbound: Faults{Corrupt: 1}})
	server2, client2 := udpPair(t, inj2)
	orig := []byte("payload-payload-payload")
	if _, err := client2.Write(orig); err != nil {
		t.Fatal(err)
	}
	server2.SetReadDeadline(time.Now().Add(time.Second))
	n, _, err := server2.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf[:n], orig) {
		t.Fatal("corrupted datagram must differ from the original")
	}
	if inj2.Stats().Corrupts != 1 {
		t.Fatalf("stats = %+v", inj2.Stats())
	}
}

func TestPacketTruncate(t *testing.T) {
	inj := New(Profile{Seed: 3, Inbound: Faults{Truncate: 1}})
	server, client := udpPair(t, inj)
	if _, err := client.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	server.SetReadDeadline(time.Now().Add(time.Second))
	n, _, err := server.ReadFrom(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if n >= 10 || n < 1 {
		t.Fatalf("truncated length = %d, want 1..9", n)
	}
}

func TestPacketOutboundDelayDeliversLate(t *testing.T) {
	inj := New(Profile{Seed: 5, Outbound: Faults{Latency: 30 * time.Millisecond}})
	server, client := udpPair(t, inj)
	start := time.Now()
	if _, err := server.WriteTo([]byte("late"), client.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if since := time.Since(start); since > 20*time.Millisecond {
		t.Fatalf("delayed WriteTo must not block the caller (took %v)", since)
	}
	client.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 64)
	n, err := client.Read(buf)
	if err != nil || string(buf[:n]) != "late" {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if since := time.Since(start); since < 25*time.Millisecond {
		t.Fatalf("datagram arrived too early: %v", since)
	}
}

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

func TestRoundTripperDropAndTruncate(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("b", 400))
	}))
	defer origin.Close()

	drop := New(Profile{Seed: 1, Outbound: Faults{Drop: 1}})
	client := &http.Client{Transport: drop.RoundTripper(nil)}
	_, err := client.Get(origin.URL)
	var ne net.Error
	if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("dropped request must surface as timeout, got %v", err)
	}

	trunc := New(Profile{Seed: 1, Inbound: Faults{Truncate: 1}})
	client2 := &http.Client{Transport: trunc.RoundTripper(nil)}
	resp, err := client2.Get(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) >= 400 {
		t.Fatalf("truncated body delivered %d bytes", len(body))
	}
}

func TestRoundTripperPassThrough(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "intact")
	}))
	defer origin.Close()
	inj := New(Profile{Seed: 4})
	client := &http.Client{Transport: inj.RoundTripper(nil)}
	resp, err := client.Get(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "intact" {
		t.Fatalf("body = %q", body)
	}
	if inj.Stats().Total() != 0 {
		t.Fatalf("fault-free profile must inject nothing: %+v", inj.Stats())
	}
}

// TestSeededDeterminism: two injectors with the same seed make identical
// marginal decisions when driven identically.
func TestSeededDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		inj := New(Symmetric(seed, Faults{Drop: 0.3}))
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
	inj := New(Symmetric(11, Faults{Drop: 0.2, Jitter: 50 * time.Millisecond}))
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
