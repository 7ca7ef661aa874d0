package obsv

import (
	"context"
	"sync/atomic"
	"time"
)

// Hierarchical tracing. A TSpan is the causal sibling of ASpan: where
// ASpan measures an isolated operation, a TSpan carries a trace identity
// through a context.Context so that the full pipeline — table compile,
// shard fan-out, stream parse, per-request proxy work, retry ladders —
// reconstructs as one tree. Completed spans feed the same <name>.count /
// <name>.ns metrics ASpan does (no allocation histogram: trace spans are
// cheap enough to wrap per-request work) and are additionally recorded
// into the registry's flight-recorder Ring, from which the Chrome
// trace_event exporter and /debug/trace serve them.
//
// IDs are drawn from process-wide atomic sequences, not wall-clock
// entropy, so repeated runs produce identical trace topologies and tests
// stay reproducible. A span whose context carries no parent starts a new
// trace; a child inherits the TraceID and links its ParentID.

// SpanContext identifies one span's position in a trace: which trace it
// belongs to and which span it is. The zero value means "no trace".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context carries a live trace identity.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

type traceCtxKey struct{}

// ContextWithSpan returns ctx carrying sc; spans started from the
// returned context become children of sc.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return withSpanContext(ctx, &sc)
}

// withSpanContext carries the context by pointer: a pointer rides in the
// interface value itself, where a SpanContext would be boxed into a copy
// of its own. A span's context points into the TSpan.
func withSpanContext(ctx context.Context, sc *SpanContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, sc)
}

// SpanContextFrom extracts the span context from ctx, if any.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	sc, ok := ctx.Value(traceCtxKey{}).(*SpanContext)
	if !ok {
		return SpanContext{}, false
	}
	return *sc, sc.Valid()
}

// Attr is one key/value annotation on a span: shard index, record count,
// cache outcome, breaker state. Values are strings so records stay
// immutable and the exporters need no reflection.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is the immutable record of a completed span, as stored in a
// Ring. Records are never mutated after End publishes them, which is what
// makes the lock-free ring race-detector clean.
type SpanRecord struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
	Err      string
}

var (
	traceIDSeq atomic.Uint64
	spanIDSeq  atomic.Uint64

	// idSalt is ORed into every minted ID (see SetTraceIDSalt). Zero by
	// default so single-process runs and tests keep the small,
	// reproducible IDs the doc comment above promises.
	idSalt atomic.Uint64
)

// spanMetrics is the <name>.count / <name>.ns pair a trace span feeds,
// resolved once per span name — when the span starts, or once per call
// site for a SpanSite — so that ending a span builds no metric name and
// takes no registry lock.
type spanMetrics struct {
	name  string
	count *Counter
	ns    *Histogram
}

// observe feeds one completed span of duration d.
func (m *spanMetrics) observe(d time.Duration) {
	m.count.Inc()
	m.ns.Observe(d.Nanoseconds())
}

func (r *Registry) spanMetrics(name string) *spanMetrics {
	r.mu.RLock()
	m := r.spans[name]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	m = &spanMetrics{name: name, count: r.Counter(name + ".count"), ns: r.Histogram(name + ".ns")}
	r.mu.Lock()
	defer r.mu.Unlock()
	if first := r.spans[name]; first != nil {
		return first
	}
	r.spans[name] = m
	return m
}

// TSpan is an open trace span. The zero value and nil are inert: every
// method is safe to call on them, so error paths need no guards.
type TSpan struct {
	reg    *Registry
	m      *spanMetrics
	sc     SpanContext
	parent uint64
	start  time.Time
	attrs  []Attr
	errMsg string
}

// StartTraceSpan opens a span named name as a child of the span carried
// by ctx (or as a new trace root) and returns a derived context carrying
// the new span, for propagation into callees and goroutines.
func (r *Registry) StartTraceSpan(ctx context.Context, name string) (context.Context, *TSpan) {
	parent, traced := SpanContextFrom(ctx)
	return r.startTraceSpan(ctx, r.spanMetrics(name), parent, traced)
}

// startTraceSpan builds a span feeding m, a child of parent when traced
// and a new trace root otherwise.
func (r *Registry) startTraceSpan(ctx context.Context, m *spanMetrics, parent SpanContext, traced bool) (context.Context, *TSpan) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &TSpan{reg: r, m: m, start: time.Now()}
	if traced {
		s.sc.TraceID = parent.TraceID
		s.parent = parent.SpanID
	} else {
		s.sc.TraceID = idSalt.Load() | traceIDSeq.Add(1)
	}
	s.sc.SpanID = idSalt.Load() | spanIDSeq.Add(1)
	return withSpanContext(ctx, &s.sc), s
}

// StartTraceSpan opens a span on the Default registry.
func StartTraceSpan(ctx context.Context, name string) (context.Context, *TSpan) {
	return Default.StartTraceSpan(ctx, name)
}

// Context returns the span's identity for manual propagation.
func (s *TSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr annotates the span. Attributes set after End are dropped.
func (s *TSpan) SetAttr(key, value string) {
	if s == nil || s.reg == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value. The value is
// formatted only for a live span.
func (s *TSpan) SetAttrInt(key string, v int64) {
	if s == nil || s.reg == nil {
		return
	}
	s.SetAttr(key, formatInt(v))
}

// Fail marks the span as errored; the message lands in the record and
// the exporters surface it.
func (s *TSpan) Fail(err error) {
	if s == nil || s.reg == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// End completes the span: it feeds <name>.count and <name>.ns in the
// registry, records the span into the registry's flight recorder (if one
// is wired), and returns the wall time. End is idempotent; only the
// first call records.
func (s *TSpan) End() time.Duration {
	if s == nil || s.reg == nil {
		return 0
	}
	reg := s.reg
	s.reg = nil
	d := time.Since(s.start)
	s.m.observe(d)
	if ring := reg.ring.Load(); ring != nil {
		ring.Record(&SpanRecord{
			TraceID:  s.sc.TraceID,
			SpanID:   s.sc.SpanID,
			ParentID: s.parent,
			Name:     s.m.name,
			Start:    s.start,
			Duration: d,
			Attrs:    s.attrs,
			Err:      s.errMsg,
		})
	}
	return d
}

// formatInt is strconv.FormatInt without the import weight in call
// sites; kept tiny because span attributes ride request paths.
func formatInt(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
