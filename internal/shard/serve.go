package shard

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
)

const (
	// DefaultMaxBatch caps addresses per /cluster batch on a shard node,
	// matching clusterd's -max-batch default.
	DefaultMaxBatch = 100000
	// DefaultMaxBody caps a /cluster request body in bytes, matching
	// clusterd's -max-body default.
	DefaultMaxBody = 8 << 20
)

// Limits bounds one /cluster request.
type Limits struct {
	MaxBatch int   // addresses
	MaxBody  int64 // request body bytes
}

// TableSource is the read surface a node serves from — *churn.Table
// satisfies it.
type TableSource interface {
	Lookup(netutil.Addr) (bgp.Match, bool)
	LookupBatch([]netutil.Addr, []bgp.Match) ([]bgp.Match, uint64)
	Generation() uint64
}

// Admission bounds the batches a BatchHandler runs at once: a request
// that cannot acquire a slot is answered 503 with Retry-After instead
// of queueing.
type Admission interface {
	TryAcquire() bool
	Release()
}

// BatchHandler is the batch-serving pipeline, written once: the clusterd
// node (internal/node) mounts it, ServeHTTP on /cluster for clients and
// ServeStream on StreamPath for routers. A client posts a
// newline-separated address list and gets the BatchResponse JSON; a
// router sends request frames down a batch stream (stream.go) and gets
// response frames. Either way one request is decoded into the slice
// LookupBatch consumes, resolved against one pinned table generation and
// answered with a single Write from reused scratch.
type BatchHandler struct {
	Table TableSource

	// BatchSpan is the request's span site, a root, and TableSpan its
	// lookup child's; SpanAttrs annotate a built request span. Nil sites
	// start inert spans.
	BatchSpan, TableSpan *obsv.SpanSite
	SpanAttrs            []obsv.Attr

	// Batches counts admitted requests, Addrs the addresses answered.
	Batches, Addrs *obsv.Counter

	// Limits bounds each request; a zero field means DefaultMaxBatch or
	// DefaultMaxBody.
	Limits Limits
	// Admission, when set, is asked before the body is read.
	Admission Admission
	// Observe, when set, sees every resolved batch before it is answered.
	Observe func([]bgp.Match)

	streams streamSet
}

func (h *BatchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The span context arrives on the X-Netcluster-Trace header when the
	// caller is traced; extracting it makes this node's spans part of that
	// trace.
	ctx, span := h.startSpan(obsv.HTTPExtract(r.Context(), r.Header))
	defer span.End()
	if r.Method != http.MethodPost {
		http.Error(w, "POST an address list", http.StatusMethodNotAllowed)
		return
	}
	lim := h.limits()
	if h.Admission != nil {
		if !h.Admission.TryAcquire() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, errNoCapacity.Error(), http.StatusServiceUnavailable)
			return
		}
		defer h.Admission.Release()
	}
	h.Batches.Inc()

	sc := getScratch()
	defer putScratch(sc)
	if err := sc.readBatch(r, lim); err != nil {
		span.Fail(err)
		writeBatchError(w, err, lim)
		return
	}
	gen := h.resolve(ctx, &span, sc)
	sc.out = AppendBatchJSON(sc.out[:0], sc.addrs, sc.rows, gen)
	writeBody(w, jsonContentType, sc.out)
}

func (h *BatchHandler) startSpan(ctx context.Context) (context.Context, obsv.LazySpan) {
	ctx, span := h.BatchSpan.Start(ctx)
	for _, a := range h.SpanAttrs {
		span.SetAttr(a.Key, a.Value)
	}
	return ctx, span
}

func (h *BatchHandler) limits() Limits {
	lim := h.Limits
	if lim.MaxBatch == 0 {
		lim.MaxBatch = DefaultMaxBatch
	}
	if lim.MaxBody == 0 {
		lim.MaxBody = DefaultMaxBody
	}
	return lim
}

// resolve answers sc.addrs into sc.rows and returns the generation that
// answered. One pinned generation answers the whole batch: a swap
// mid-batch cannot produce a mixed-generation answer set.
func (h *BatchHandler) resolve(ctx context.Context, span *obsv.LazySpan, sc *scratch) (gen uint64) {
	span.SetAttrInt("addrs", int64(len(sc.addrs)))
	_, lspan := h.TableSpan.Start(ctx)
	sc.rows, gen = h.Table.LookupBatch(sc.addrs, sc.rows)
	lspan.End()
	if h.Observe != nil {
		h.Observe(sc.rows)
	}
	h.Addrs.Add(uint64(len(sc.addrs)))
	return gen
}

var (
	errBatchTooLarge = errors.New("batch exceeds limit")
	errBodyTooLarge  = errors.New("body exceeds limit")
	errNoCapacity    = errors.New("batch capacity exhausted, retry later")
)

// refusal is the status and message a refused request is answered with,
// over HTTP and in a stream's error frame alike: 413 past either limit,
// 400 otherwise.
func refusal(err error, lim Limits) (status int, msg string) {
	switch {
	case errors.Is(err, errBatchTooLarge):
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("batch exceeds %d addresses", lim.MaxBatch)
	case errors.Is(err, errBodyTooLarge):
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", lim.MaxBody)
	}
	return http.StatusBadRequest, err.Error()
}

// writeBatchError answers a request readBatch refused.
func writeBatchError(w http.ResponseWriter, err error, lim Limits) {
	status, msg := refusal(err, lim)
	http.Error(w, msg, status)
}

// scratch is the per-request working memory of the node core and the
// router, recycled through scratchPool — or kept by a batch stream for
// as long as its connection lives — so a steady run of batches allocates
// nothing per address. A node uses body, addrs, rows and out; the rest is
// the router's fan-out state (router.go).
type scratch struct {
	body  []byte         // request body as read
	addrs []netutil.Addr // the batch, in input order
	rows  []bgp.Match    // rows[i] answers addrs[i]
	out   []byte         // rendered response

	sorted  []netutil.Addr // addrs grouped by owning shard
	order   []int32        // order[k] is the input index of sorted[k]
	bounds  []int          // shard s owns sorted[bounds[s]:bounds[s+1]]
	dense   []bgp.Match    // dense[k] answers sorted[k]
	wire    []byte         // every shard's request and response frame
	reports []ShardReport
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledScratch bounds what one pooled scratch may pin: a scratch an
// outsized batch grew past it is left to the collector, so the pool
// cannot raise the process's resident set.
const maxPooledScratch = 1 << 20

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	if sc.size() <= maxPooledScratch {
		scratchPool.Put(sc)
	}
}

// size is the bytes sc's slices hold on to.
func (sc *scratch) size() int {
	return cap(sc.body) + cap(sc.out) + cap(sc.wire) +
		4*(cap(sc.addrs)+cap(sc.sorted)+cap(sc.order)) + 8*(cap(sc.rows)+cap(sc.dense))
}

// resize returns s with length n, reusing its array when that is large
// enough. What the elements hold is unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// readBatch reads r's body, at most lim.MaxBody bytes of it, and parses
// the address list it holds into sc.addrs.
func (sc *scratch) readBatch(r *http.Request, lim Limits) (err error) {
	if sc.body, err = readCapped(sc.body, r.Body, r.ContentLength, lim.MaxBody); err != nil {
		return err
	}
	sc.addrs, err = parseAddrLines(sc.body, lim.MaxBatch, sc.addrs[:0])
	return err
}

// readCapped reads all of r into buf[:0], failing with errBodyTooLarge
// once more than limit bytes arrived. size is the declared length, or -1.
func readCapped(buf []byte, r io.Reader, size, limit int64) ([]byte, error) {
	if size > limit {
		return buf[:0], errBodyTooLarge
	}
	// One byte beyond the declared size lets the last Read report EOF
	// without growing the buffer.
	need := bytes.MinRead
	if size >= 0 {
		need = int(size) + 1
	}
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// maxLineLen is the longest address-list line accepted, the token limit
// of the bufio.Scanner the list was first parsed with.
const maxLineLen = bufio.MaxScanTokenSize - 1

// parseAddrLines appends the addresses of a newline-separated list to
// dst, skipping blank lines, erroring on the first unparsable line or
// past limit addresses. It makes no per-line string.
func parseAddrLines(body []byte, limit int, dst []netutil.Addr) ([]netutil.Addr, error) {
	for len(body) > 0 {
		line := body
		if nl := bytes.IndexByte(body, '\n'); nl >= 0 {
			line, body = body[:nl], body[nl+1:]
		} else {
			body = nil
		}
		if len(line) > maxLineLen {
			return nil, bufio.ErrTooLong
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if len(dst) >= limit {
			return nil, errBatchTooLarge
		}
		addr, ok := netutil.ParseAddrBytes(line)
		if !ok {
			return nil, fmt.Errorf("line %d: bad addr %q", len(dst)+1, line)
		}
		dst = append(dst, addr)
	}
	return dst, nil
}

// ParseAddrList reads a newline-separated address list (the /cluster
// request body format), skipping blank lines, erroring on the first
// unparsable line or past limit addresses.
func ParseAddrList(r io.Reader, limit int) ([]netutil.Addr, error) {
	sc := getScratch()
	defer putScratch(sc)
	var err error
	if sc.body, err = readCapped(sc.body, r, -1, math.MaxInt64); err != nil {
		return nil, err
	}
	// Sized from the line count, the result is the call's one allocation.
	lines := bytes.Count(sc.body, []byte{'\n'}) + 1
	return parseAddrLines(sc.body, limit, make([]netutil.Addr, 0, max(0, min(lines, limit))))
}
