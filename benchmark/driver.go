package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The load driver: one process, closed loop, one goroutine per connection.
// It writes prebuilt HTTP/1.1 requests on a raw keep-alive connection and
// parses the response with net/http's reader, which costs about half of
// what http.Client does per call — on a two-core box the driver shares
// CPUs with the system under test, so a cheap driver is a quieter one.

// hconn is one keep-alive connection to a daemon.
type hconn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dialHTTP(base string) (*hconn, error) {
	c, err := net.DialTimeout("tcp", strings.TrimPrefix(base, "http://"), 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &hconn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (h *hconn) close() { h.c.Close() }

// do sends one prebuilt request and returns the status and body. The body
// is valid until the next call.
func (h *hconn) do(req []byte) (int, []byte, error) {
	h.c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := h.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, nil, err
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, h.body.Bytes(), err
}

func hostOf(base string) string { return strings.TrimPrefix(base, "http://") }

func postRequest(base, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n",
		path, hostOf(base), len(body))
	b.Write(body)
	return b.Bytes()
}

func getRequest(base, pathAndQuery string) []byte {
	return []byte("GET " + pathAndQuery + " HTTP/1.1\r\nHost: " + hostOf(base) + "\r\n\r\n")
}

// opRec is one completed operation, timed from the phase's start.
type opRec struct {
	start, end time.Duration
	clustered  int32
	ok         bool
}

// sample is one answer kept verbatim for the oracle check.
type sample struct {
	conn int
	req  int
	end  time.Duration
	body []byte
}

// load describes a closed-loop serving load.
type load struct {
	base    string
	reqs    [][]byte // prebuilt requests; connection c sends c, c+conns, ...
	items   int      // addresses per request
	conns   int
	sampleK int // answers kept per window and connection

	// onOp, when set, runs on the driver goroutine after every operation
	// (win is -1 outside the windows): the traced run records spans and
	// replays stages here.
	onOp func(win, conn, req int, start, end time.Time, body []byte)
}

// inspect is the check every answer gets on the hot path, by byte counting
// rather than decoding so the driver stays cheap: 200, one row per
// address, no degraded shard, no per-row error. It returns how many rows
// clustered.
func inspect(status int, body []byte, items int) (clustered int, ok bool) {
	if status != http.StatusOK ||
		bytes.Count(body, []byte(`"clustered":`)) != items ||
		bytes.Contains(body, []byte(`"degradation"`)) ||
		bytes.Contains(body, []byte(`"error"`)) {
		return 0, false
	}
	return bytes.Count(body, []byte(`"clustered":true`)), true
}

// edge is a window boundary: when it was sampled and the cumulative CPU
// of the system's processes and of the harness at that moment.
type edge struct {
	at      time.Duration
	sysCPU  float64
	selfCPU float64
}

// phase is everything one measured phase recorded.
type phase struct {
	edges   []edge    // windows+1 boundaries
	ops     [][]opRec // per connection, completion order
	samples []sample
	// items completed and allocations made between the two memstats
	// reads, which bracket the windows from outside.
	allocItems int64
	allocs     allocCounts
	// firstBad describes the first answer that failed inspection.
	firstBad string
}

// runLoad drives l against the system for a warm-up and then `windows`
// back-to-back windows. sysPIDs are the system's processes (CPU), bases
// their debug endpoints (allocations).
func runLoad(l load, sysPIDs []int, sysBases []string, warm, window time.Duration, windows int) (*phase, error) {
	conns := make([]*hconn, l.conns)
	for i := range conns {
		c, err := dialHTTP(l.base)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}

	var (
		stop      atomic.Bool
		curWindow atomic.Int32 // -1 during warm-up
		items     atomic.Int64
		wg        sync.WaitGroup
		mu        sync.Mutex
		samples   []sample
		firstErr  error
	)
	curWindow.Store(-1)
	ph := &phase{ops: make([][]opRec, l.conns)}
	t0 := time.Now()
	for ci := range conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			h := conns[ci]
			recs := make([]opRec, 0, 1<<16)
			lastWin, kept := int32(-1), 0
			for ri := ci; !stop.Load(); ri += l.conns {
				req := ri % len(l.reqs)
				start := time.Since(t0)
				status, body, err := h.do(l.reqs[req])
				end := time.Since(t0)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("connection %d: %w", ci, err)
					}
					mu.Unlock()
					stop.Store(true)
					break
				}
				clustered, ok := inspect(status, body, l.items)
				if !ok {
					mu.Lock()
					if ph.firstBad == "" {
						ph.firstBad = fmt.Sprintf("connection %d at %v: status %d: %.300s", ci, end, status, body)
					}
					mu.Unlock()
				}
				recs = append(recs, opRec{start, end, int32(clustered), ok})
				items.Add(int64(l.items))
				if w := curWindow.Load(); w >= 0 {
					if w != lastWin {
						lastWin, kept = w, 0
					}
					if kept < l.sampleK {
						kept++
						s := sample{ci, req, end, append([]byte(nil), body...)}
						mu.Lock()
						samples = append(samples, s)
						mu.Unlock()
					}
				}
				if l.onOp != nil {
					l.onOp(int(curWindow.Load()), ci, req, t0.Add(start), t0.Add(end), body)
				}
			}
			ph.ops[ci] = recs
		}(ci)
	}

	readEdge := func() (edge, error) {
		e := edge{at: time.Since(t0), selfCPU: selfCPUSeconds()}
		for _, pid := range sysPIDs {
			s, err := cpuSeconds(pid)
			if err != nil {
				return e, err
			}
			e.sysCPU += s
		}
		return e, nil
	}
	readAllocs := func() (allocCounts, error) {
		var sum allocCounts
		for _, b := range sysBases {
			a, err := childAllocs(b)
			if err != nil {
				return sum, err
			}
			sum.mallocs += a.mallocs
			sum.bytes += a.bytes
		}
		return sum, nil
	}
	finish := func(err error) (*phase, error) {
		stop.Store(true)
		wg.Wait()
		if err == nil {
			err = firstErr
		}
		ph.samples = samples
		return ph, err
	}

	sleepUntil := func(d time.Duration) { time.Sleep(d - time.Since(t0)) }
	sleepUntil(warm)
	// Memstats are read before the first window opens and after the last
	// one closed, never inside one: the read stops the child's world.
	before, err := readAllocs()
	if err != nil {
		return finish(err)
	}
	itemsBefore := items.Load()
	begin := time.Since(t0)
	for w := 0; w <= windows; w++ {
		sleepUntil(begin + time.Duration(w)*window)
		if w < windows {
			curWindow.Store(int32(w))
		}
		e, err := readEdge()
		if err != nil {
			return finish(err)
		}
		ph.edges = append(ph.edges, e)
		if stop.Load() {
			return finish(nil)
		}
	}
	curWindow.Store(-1)
	ph.allocItems = items.Load() - itemsBefore
	after, err := readAllocs()
	if err != nil {
		return finish(err)
	}
	ph.allocs = after.sub(before)
	return finish(nil)
}

// windowStats are one window's raw numbers.
type windowStats struct {
	seconds   float64
	ops       int
	failed    int
	items     int
	clustered int
	latMS     []float64 // ascending
	sysCPU    float64   // seconds
	selfCPU   float64
}

// splitWindows assigns every operation to the window it completed in.
func (ph *phase) splitWindows(itemsPerOp int) []windowStats {
	n := len(ph.edges) - 1
	if n < 1 {
		return nil
	}
	ws := make([]windowStats, n)
	for i := range ws {
		ws[i].seconds = (ph.edges[i+1].at - ph.edges[i].at).Seconds()
		ws[i].sysCPU = ph.edges[i+1].sysCPU - ph.edges[i].sysCPU
		ws[i].selfCPU = ph.edges[i+1].selfCPU - ph.edges[i].selfCPU
	}
	for _, recs := range ph.ops {
		w := 0
		for _, r := range recs {
			if r.end <= ph.edges[0].at {
				continue
			}
			for w < n && r.end > ph.edges[w+1].at {
				w++
			}
			if w == n {
				break
			}
			ws[w].ops++
			if !r.ok {
				ws[w].failed++
				continue
			}
			ws[w].items += itemsPerOp
			ws[w].clustered += int(r.clustered)
			ws[w].latMS = append(ws[w].latMS, float64(r.end-r.start)/float64(time.Millisecond))
		}
	}
	for i := range ws {
		ws[i].latMS = sortedCopy(ws[i].latMS)
	}
	return ws
}
