package obsv

import (
	"context"
	"sync/atomic"
	"time"
)

// Request spans. Most trace spans wrap runs, passes and network attempts,
// so their number grows with work done, not with traffic. A serving
// process's request spans are the exception: one per request, and
// building each — the TSpan, the context that carries it, its
// attributes, the ring record — spends allocations on spans nobody reads
// when nobody is tracing.
//
// A SpanSite is one call site's request span, resolved once like a
// Counter or Histogram handle. Start builds a TSpan only when the
// request is traced — its context carries a span context, from
// HTTPExtract, a batch-stream header or a parent span — or when the site
// is a root and the sampler picks this untraced request, one in
// RootSampleEvery. Any other start is unbuilt: it allocates nothing,
// derives no context, formats no attribute and records nothing. Built
// or not, End feeds <name>.count and <name>.ns, so the metrics, their
// quantiles and their federation count every request.
//
// A child site never samples: its span is built exactly when its parent
// is, because the parent's context is what makes it traced. An
// unsampled request therefore leaves no fragment of its tree in the
// ring, and a sampled one leaves the whole local tree.

// RootSampleEvery is the 1-in-N rate at which a root site builds the
// span of an untraced request anyway, keeping a representative sliver of
// untraced traffic in the flight recorder. The first untraced request a
// site sees is sampled.
const RootSampleEvery = 64

// SpanSite is a request span's call site. Nil is inert: Start on a nil
// site returns an inert span.
type SpanSite struct {
	reg  *Registry
	m    *spanMetrics
	root bool
	seen atomic.Uint64 // untraced starts: the root sampler's clock
}

// RootSpan returns a site for spans that open a request's local tree:
// built when the request is traced or sampled.
func (r *Registry) RootSpan(name string) *SpanSite {
	return &SpanSite{reg: r, m: r.spanMetrics(name), root: true}
}

// ChildSpan returns a site for spans under a request's root: built only
// when the context they start from is traced.
func (r *Registry) ChildSpan(name string) *SpanSite {
	return &SpanSite{reg: r, m: r.spanMetrics(name)}
}

// RootSpan returns a root site on the Default registry.
func RootSpan(name string) *SpanSite { return Default.RootSpan(name) }

// ChildSpan returns a child site on the Default registry.
func ChildSpan(name string) *SpanSite { return Default.ChildSpan(name) }

// Start opens the site's span for one request under ctx. A built span
// returns a derived context carrying it, for propagation into callees;
// an unbuilt one returns ctx itself.
func (s *SpanSite) Start(ctx context.Context) (context.Context, LazySpan) {
	if s == nil {
		return ctx, LazySpan{}
	}
	parent, traced := SpanContextFrom(ctx)
	if !traced && (!s.root || s.seen.Add(1)%RootSampleEvery != 1) {
		return ctx, LazySpan{m: s.m, start: time.Since(monoEpoch)}
	}
	ctx, t := s.reg.startTraceSpan(ctx, s.m, parent, traced)
	return ctx, LazySpan{t: t}
}

// monoEpoch anchors unbuilt spans' clock: time.Since reads only the
// monotonic clock, where time.Now reads the wall clock as well, and an
// unbuilt span needs a duration, not a timestamp.
var monoEpoch = time.Now()

// LazySpan is an open request span: a TSpan when built, otherwise only
// the start its metrics need. The zero value is inert. Its methods take a
// pointer so that End can be idempotent; a LazySpan lives on its
// caller's stack.
type LazySpan struct {
	t     *TSpan
	m     *spanMetrics  // unbuilt: what End feeds
	start time.Duration // unbuilt: since monoEpoch
}

// SetAttr annotates a built span.
func (s *LazySpan) SetAttr(key, value string) { s.t.SetAttr(key, value) }

// SetAttrInt annotates a built span with an integer value.
func (s *LazySpan) SetAttrInt(key string, v int64) { s.t.SetAttrInt(key, v) }

// Fail marks a built span as errored.
func (s *LazySpan) Fail(err error) { s.t.Fail(err) }

// End completes the span, feeding <name>.count and <name>.ns and, when
// built, recording it into the flight recorder; it returns the wall
// time. Only the first call counts.
func (s *LazySpan) End() time.Duration {
	if s.t != nil {
		return s.t.End()
	}
	m := s.m
	if m == nil {
		return 0
	}
	s.m = nil
	d := time.Since(monoEpoch) - s.start
	m.observe(d)
	return d
}
