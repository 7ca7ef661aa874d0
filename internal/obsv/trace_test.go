package obsv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// tracedRegistry returns a fresh registry wired to its own small ring, so
// trace tests never pollute (or race with) the Default flight recorder.
func tracedRegistry(size int) (*Registry, *Ring) {
	reg := NewRegistry()
	ring := NewRing(size)
	reg.SetRing(ring)
	return reg, ring
}

func TestTraceSpanHierarchy(t *testing.T) {
	reg, ring := tracedRegistry(64)

	ctx, root := reg.StartTraceSpan(context.Background(), "root")
	if !root.Context().Valid() {
		t.Fatal("root span has no trace identity")
	}
	cctx, child := reg.StartTraceSpan(ctx, "child")
	_, grand := reg.StartTraceSpan(cctx, "grandchild")

	if child.Context().TraceID != root.Context().TraceID {
		t.Errorf("child trace %d != root trace %d", child.Context().TraceID, root.Context().TraceID)
	}
	if grand.Context().TraceID != root.Context().TraceID {
		t.Errorf("grandchild trace %d != root trace %d", grand.Context().TraceID, root.Context().TraceID)
	}
	if child.Context().SpanID == root.Context().SpanID {
		t.Error("child did not get its own span id")
	}

	grand.SetAttrInt("records", 42)
	grand.End()
	child.Fail(errors.New("boom"))
	child.End()
	root.End()

	spans := ring.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("ring holds %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["child"].ParentID != byName["root"].SpanID {
		t.Errorf("child parent %d, want root span %d", byName["child"].ParentID, byName["root"].SpanID)
	}
	if byName["grandchild"].ParentID != byName["child"].SpanID {
		t.Errorf("grandchild parent %d, want child span %d", byName["grandchild"].ParentID, byName["child"].SpanID)
	}
	if byName["root"].ParentID != 0 {
		t.Errorf("root parent %d, want 0", byName["root"].ParentID)
	}
	if byName["child"].Err != "boom" {
		t.Errorf("child error %q, want \"boom\"", byName["child"].Err)
	}
	found := false
	for _, a := range byName["grandchild"].Attrs {
		if a.Key == "records" && a.Value == "42" {
			found = true
		}
	}
	if !found {
		t.Errorf("grandchild attrs %v missing records=42", byName["grandchild"].Attrs)
	}

	// End feeds <name>.count and <name>.ns.
	if got := reg.Counter("root.count").Value(); got != 1 {
		t.Errorf("root.count = %d, want 1", got)
	}
	if got := reg.Histogram("root.ns").count.Load(); got != 1 {
		t.Errorf("root.ns count = %d, want 1", got)
	}
}

// TestTraceSpanAllocations pins what a span costs the allocator: the
// span, the context that carries it and the record the ring keeps. A
// fourth would be a metric name built, or the span context boxed, per
// call.
func TestTraceSpanAllocations(t *testing.T) {
	reg, _ := tracedRegistry(64)
	ctx, root := reg.StartTraceSpan(context.Background(), "alloc.root")
	defer root.End()
	// AllocsPerRun's warm-up call resolves the name's metric handles.
	allocs := testing.AllocsPerRun(200, func() {
		_, span := reg.StartTraceSpan(ctx, "alloc.child")
		span.End()
	})
	if allocs > 3 {
		t.Fatalf("starting and ending a child span allocates %.0f times, want at most 3", allocs)
	}
	if got := reg.Counter("alloc.child.count").Value(); got != 201 {
		t.Fatalf("alloc.child.count = %d after 201 ended spans", got)
	}
}

func TestTraceSpanNilSafety(t *testing.T) {
	var s *TSpan
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 1)
	s.Fail(errors.New("x"))
	if d := s.End(); d != 0 {
		t.Errorf("nil span End = %v, want 0", d)
	}
	if s.Context().Valid() {
		t.Error("nil span context should be invalid")
	}

	// Double End records once.
	reg, ring := tracedRegistry(16)
	_, sp := reg.StartTraceSpan(context.Background(), "once")
	sp.End()
	sp.End()
	if got := ring.Recorded(); got != 1 {
		t.Errorf("double End recorded %d spans, want 1", got)
	}
	if got := reg.Counter("once.count").Value(); got != 1 {
		t.Errorf("once.count = %d, want 1", got)
	}
}

// TestSetAttrIntFormatsOnlyLiveSpans: an integer attribute is formatted
// only for a span that will record it, so a nil, ended or unbuilt span
// costs nothing to annotate.
func TestSetAttrIntFormatsOnlyLiveSpans(t *testing.T) {
	reg, _ := tracedRegistry(16)
	var nilSpan *TSpan
	_, ended := reg.StartTraceSpan(context.Background(), "attr.ended")
	ended.End()
	site := reg.ChildSpan("attr.unbuilt")
	_, unbuilt := site.Start(context.Background())
	defer unbuilt.End()
	for name, set := range map[string]func(){
		"nil":     func() { nilSpan.SetAttrInt("n", 123456789) },
		"ended":   func() { ended.SetAttrInt("n", 123456789) },
		"unbuilt": func() { unbuilt.SetAttrInt("n", 123456789) },
	} {
		if allocs := testing.AllocsPerRun(100, set); allocs != 0 {
			t.Errorf("SetAttrInt on a %s span allocates %.0f times, want 0", name, allocs)
		}
	}
}

// TestSpanSiteBuildsTracedOrSampled: a root site builds the first of
// every RootSampleEvery untraced requests and every traced one; a child
// site builds exactly under a built parent. A built span derives a
// context and an unbuilt one does not; unbuilt spans allocate nothing
// and record nothing, and every span, built or not, feeds <name>.count
// and <name>.ns.
func TestSpanSiteBuildsTracedOrSampled(t *testing.T) {
	reg, ring := tracedRegistry(256)
	root, child := reg.RootSpan("req.root"), reg.ChildSpan("req.child")
	bg := context.Background()
	request := func(ctx context.Context) (built, childBuilt bool) {
		rctx, rs := root.Start(ctx)
		cctx, cs := child.Start(rctx)
		built, childBuilt = rctx != ctx, cctx != rctx
		cs.SetAttrInt("n", 1)
		cs.End()
		rs.End()
		rs.End() // idempotent, built or not
		return built, childBuilt
	}
	for i := 0; i < 2*RootSampleEvery; i++ {
		built, childBuilt := request(bg)
		if want := i%RootSampleEvery == 0; built != want || childBuilt != want {
			t.Fatalf("untraced request %d: root built %v, child built %v, want %v", i, built, childBuilt, want)
		}
	}
	if got := ring.Recorded(); got != 4 {
		t.Fatalf("ring recorded %d spans for 2 sampled requests, want 4", got)
	}
	for _, rec := range ring.Snapshot() {
		if rec.Name == "req.child" && rec.ParentID == 0 {
			t.Fatalf("child recorded as a root: %+v", rec)
		}
	}

	// A traced request is built whatever the sampler's phase, and joins
	// the caller's trace; the sampler does not count it, so the untraced
	// request after it is the next one sampled.
	caller := SpanContext{TraceID: 77, SpanID: 78}
	if built, childBuilt := request(ContextWithSpan(bg, caller)); !built || !childBuilt {
		t.Fatal("a traced request was not built")
	}
	joined := false
	for _, rec := range ring.Snapshot() {
		joined = joined || rec.Name == "req.root" && rec.TraceID == 77 && rec.ParentID == 78
	}
	if !joined {
		t.Fatal("the traced root was not recorded as a child of the caller's span")
	}
	if built, _ := request(bg); !built {
		t.Fatal("the traced request advanced the root sampler")
	}

	// A child site never samples on its own.
	for i := 0; i < RootSampleEvery; i++ {
		ctx, cs := child.Start(bg)
		if ctx != bg {
			t.Fatal("an untraced child span was built")
		}
		cs.End()
	}
	if got := ring.Recorded(); got != 8 {
		t.Fatalf("ring recorded %d spans, want the 8 built ones", got)
	}

	const requests = 2*RootSampleEvery + 2
	for name, want := range map[string]uint64{"req.root": requests, "req.child": requests + RootSampleEvery} {
		if got := reg.Counter(name + ".count").Value(); got != want {
			t.Errorf("%s.count = %d, want %d", name, got, want)
		}
		if got := reg.Histogram(name + ".ns").count.Load(); got != want {
			t.Errorf("%s.ns holds %d observations, want %d", name, got, want)
		}
	}

	// The sampled request aside, an untraced request allocates nothing.
	for built := false; !built; {
		built, _ = request(bg)
	}
	if allocs := testing.AllocsPerRun(RootSampleEvery-2, func() { request(bg) }); allocs != 0 {
		t.Fatalf("an unsampled request allocates %.2f times, want 0", allocs)
	}

	// A nil site starts inert spans.
	var none *SpanSite
	ctx, sp := none.Start(bg)
	sp.SetAttr("k", "v")
	sp.Fail(errors.New("x"))
	if ctx != bg || sp.End() != 0 {
		t.Fatal("a nil site's span is not inert")
	}
}

func TestSpanContextPropagation(t *testing.T) {
	if _, ok := SpanContextFrom(context.Background()); ok {
		t.Error("background context should carry no span")
	}
	if _, ok := SpanContextFrom(nil); ok {
		t.Error("nil context should carry no span")
	}
	sc := SpanContext{TraceID: 7, SpanID: 9}
	got, ok := SpanContextFrom(ContextWithSpan(context.Background(), sc))
	if !ok || got != sc {
		t.Errorf("round-tripped context = %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestRingWraparoundAndReset(t *testing.T) {
	ring := NewRing(16)
	if len(ring.slots) != 16 {
		t.Fatalf("Cap = %d, want 16", len(ring.slots))
	}
	base := time.Unix(1000, 0)
	for i := 0; i < 40; i++ {
		ring.Record(&SpanRecord{
			SpanID: uint64(i + 1), TraceID: 1, Name: "s",
			Start: base.Add(time.Duration(i) * time.Millisecond),
		})
	}
	if got := ring.Recorded(); got != 40 {
		t.Errorf("Recorded = %d, want 40", got)
	}
	if got := ring.Dropped(); got != 24 {
		t.Errorf("Dropped = %d, want 24", got)
	}
	spans := ring.Snapshot()
	if len(spans) != 16 {
		t.Fatalf("snapshot holds %d spans, want 16", len(spans))
	}
	// The survivors are the newest 16, ordered by start.
	for i, s := range spans {
		if want := uint64(25 + i); s.SpanID != want {
			t.Errorf("span %d id = %d, want %d", i, s.SpanID, want)
		}
	}

	ring.Reset()
	if got := ring.Recorded(); got != 0 {
		t.Errorf("Recorded after Reset = %d, want 0", got)
	}
	if got := len(ring.Snapshot()); got != 0 {
		t.Errorf("snapshot after Reset holds %d spans, want 0", got)
	}

	// Nil ring is inert.
	var nr *Ring
	nr.Record(&SpanRecord{})
	if nr.Recorded() != 0 || nr.Dropped() != 0 || nr.Snapshot() != nil {
		t.Error("nil ring should be inert")
	}
}

func TestRingConcurrentWriters(t *testing.T) {
	ring := NewRing(64)
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ring.Record(&SpanRecord{TraceID: uint64(w + 1), SpanID: uint64(i + 1), Name: "w"})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, s := range ring.Snapshot() {
				if s.Name != "w" {
					t.Errorf("torn record: %+v", s)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := ring.Recorded(); got != writers*per {
		t.Errorf("Recorded = %d, want %d", got, writers*per)
	}
}

// mkSpan builds a deterministic record for exporter tests.
func mkSpan(trace, span, parent uint64, name string, startMs, durMs int64) SpanRecord {
	return SpanRecord{
		TraceID: trace, SpanID: span, ParentID: parent, Name: name,
		Start:    time.Unix(0, startMs*int64(time.Millisecond)),
		Duration: time.Duration(durMs) * time.Millisecond,
	}
}

func TestChromeTraceNestingAndValidation(t *testing.T) {
	// A root with a sequential child, two overlapping "shard" children
	// (the parallel fan-out shape), and a second disjoint trace.
	spans := []SpanRecord{
		mkSpan(1, 1, 0, "root", 0, 100),
		mkSpan(1, 2, 1, "compile", 0, 10),
		mkSpan(1, 3, 1, "shard", 20, 50),
		mkSpan(1, 4, 1, "shard", 20, 60),
		mkSpan(1, 5, 1, "merge", 85, 10),
		mkSpan(2, 6, 0, "other", 200, 30),
		// Orphan: parent evicted from the ring — must render as a root.
		mkSpan(3, 7, 999, "orphan", 300, 5),
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("invalid trace: %v\n%s", err, buf.String())
	}
	if n != len(spans) {
		t.Errorf("validated %d X events, want %d", n, len(spans))
	}
	// The two overlapping shards cannot share a lane.
	out := buf.String()
	if !strings.Contains(out, `"shard"`) || !strings.Contains(out, `"process_name"`) {
		t.Errorf("trace output missing expected names:\n%s", out)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateChromeTrace(buf.Bytes()); err != nil || n != 0 {
		t.Errorf("empty trace: n=%d err=%v", n, err)
	}
}

func TestChromeTraceLiveSpans(t *testing.T) {
	// Drive real concurrent spans through a registry and check the
	// exported trace still validates — wall-clock overlap included.
	reg, ring := tracedRegistry(256)
	ctx, root := reg.StartTraceSpan(context.Background(), "run")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := reg.StartTraceSpan(ctx, "worker")
			sp.SetAttrInt("worker", int64(w))
			time.Sleep(time.Millisecond)
			sp.End()
		}()
	}
	wg.Wait()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, ring.Snapshot()); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("live trace invalid: %v\n%s", err, buf.String())
	}
	if n != 5 {
		t.Errorf("validated %d events, want 5", n)
	}
}

func TestValidateChromeTraceRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"missing fields": `{"traceEvents":[{"ph":"X","name":"a"}]}`,
		"overlap": `{"traceEvents":[
			{"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1},
			{"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":1}]}`,
	}
	for label, in := range cases {
		if _, err := ValidateChromeTrace([]byte(in)); err == nil {
			t.Errorf("%s: expected error", label)
		}
	}
	// Bare-array form is accepted.
	if n, err := ValidateChromeTrace([]byte(`[{"name":"a","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]`)); err != nil || n != 1 {
		t.Errorf("bare array: n=%d err=%v", n, err)
	}
}

func TestPrometheusTextExposition(t *testing.T) {
	reg, _ := tracedRegistry(16)
	reg.Counter("demo.requests").Add(7)
	reg.Gauge("demo.depth").Set(3)
	h := reg.Histogram("demo.latency.ns")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}

	var buf bytes.Buffer
	if err := WritePrometheusText(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	page := buf.String()

	for _, want := range []string{
		"netcluster_demo_requests_total 7",
		"netcluster_demo_depth 3",
		"# TYPE netcluster_demo_latency_ns histogram",
		`netcluster_demo_latency_ns_bucket{le="+Inf"} 1000`,
		"netcluster_demo_latency_ns_count 1000",
		"netcluster_demo_latency_ns_p50",
		"netcluster_demo_latency_ns_p99",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q:\n%s", want, page)
		}
	}

	// Structural parse: every sample line is "name{labels} value" with a
	// preceding TYPE comment, no duplicate series.
	seen := map[string]bool{}
	typed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		series := fields[0]
		if seen[series] {
			t.Errorf("duplicate series %q", series)
		}
		seen[series] = true
		var f float64
		if _, err := fmt.Sscanf(fields[1], "%g", &f); err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
		}
		// Cumulative-bucket monotonicity is implied by construction; here
		// just check each sample belongs to a declared family.
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && typed[strings.TrimSuffix(name, suf)] {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if !typed[base] {
			t.Errorf("series %q has no TYPE declaration", series)
		}
	}

	// Determinism: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := WritePrometheusText(&buf2, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("two renders of the same snapshot differ")
	}
}

func TestPromNameSanitization(t *testing.T) {
	if got := promName("bgp.lookup.count"); got != "netcluster_bgp_lookup_count" {
		t.Errorf("promName = %q", got)
	}
	if got := promName("weird-metric/x"); got != "netcluster_weird_metric_x" {
		t.Errorf("promName = %q", got)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	// Uniform 1..1024: the true median is ~512; log2 interpolation lands
	// within the surrounding bucket [512,1023].
	var h Histogram
	for i := int64(1); i <= 1024; i++ {
		h.Observe(i)
	}
	if p50 := h.Quantile(0.5); p50 < 256 || p50 > 1023 {
		t.Errorf("uniform p50 = %g, want within [256,1023]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 512 || p99 > 1024 {
		t.Errorf("uniform p99 = %g, want within [512,1024]", p99)
	}
	if q0 := h.Quantile(0); q0 > 1 {
		t.Errorf("q=0 = %g, want <= 1", q0)
	}
	// q=1 resolves inside the bucket holding the max (1024 ∈ [1024,2047]).
	if q1 := h.Quantile(1); q1 < 1024 || q1 > 2047 {
		t.Errorf("q=1 = %g, want within [1024,2047]", q1)
	}

	// Point mass: every observation identical — all quantiles fall in
	// that value's bucket.
	var pm Histogram
	for i := 0; i < 100; i++ {
		pm.Observe(100)
	}
	lo, hi := float64(64), float64(127)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if v := pm.Quantile(q); v < lo || v > hi {
			t.Errorf("point-mass q=%g = %g, want within [%g,%g]", q, v, lo, hi)
		}
	}

	// Quantiles are monotone in q.
	var mx Histogram
	for i := int64(0); i < 1000; i++ {
		mx.Observe(i * i)
	}
	prev := math.Inf(-1)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.95, 0.999} {
		v := mx.Quantile(q)
		if v < prev {
			t.Errorf("quantile not monotone at q=%g: %g < %g", q, v, prev)
		}
		prev = v
	}

	// Empty histogram: zero everywhere.
	var e Histogram
	if v := e.Quantile(0.5); v != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", v)
	}

	// Snapshot carries P50 <= P95 <= P99.
	s := h.Snapshot()
	if !(s.P50 <= s.P95 && s.P95 <= s.P99) {
		t.Errorf("snapshot quantiles not ordered: p50=%g p95=%g p99=%g", s.P50, s.P95, s.P99)
	}
}

func TestTraceHandlerAndMetricsHandlerWired(t *testing.T) {
	// The default debug handler must serve /metrics and /debug/trace.
	_, sp := StartTraceSpan(context.Background(), "handler.probe")
	sp.End()

	h := DebugHandler()
	for _, path := range []string{"/metrics", "/debug/trace", "/debug/vars"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("%s returned %d", path, rec.Code)
		}
		if rec.Body.Len() == 0 {
			t.Errorf("%s returned empty body", path)
		}
	}

	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := mrec.Header().Get("Content-Type"); ct != PrometheusContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, PrometheusContentType)
	}

	rec := httptest.NewRecorder()
	TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if n, err := ValidateChromeTrace(rec.Body.Bytes()); err != nil || n == 0 {
		t.Errorf("/debug/trace payload invalid: n=%d err=%v", n, err)
	}
}

// Recorded returns the total number of spans ever recorded.
func (r *Ring) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.writes.Load()
}

// Dropped returns how many spans have been overwritten.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	w := r.writes.Load()
	if w <= uint64(len(r.slots)) {
		return 0
	}
	return w - uint64(len(r.slots))
}

// Reset discards all recorded spans. Not intended to race writers; tests
// use it to scope the ring to one scenario.
func (r *Ring) Reset() {
	if r == nil {
		return
	}
	for i := range r.slots {
		r.slots[i].Store(nil)
	}
	r.writes.Store(0)
}
