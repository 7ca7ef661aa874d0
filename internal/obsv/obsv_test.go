package obsv

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	if c.Inc() != 1 || c.Add(4) != 5 || c.Value() != 5 {
		t.Fatalf("counter arithmetic broken: %d", c.Value())
	}
	if r.Counter("a.count") != c {
		t.Fatal("Counter must be get-or-create, not create-always")
	}
	g := r.Gauge("a.gauge")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

// TestConcurrentIncrements drives every metric kind from many goroutines;
// under -race this is the data-race proof, and the final counts prove no
// increment was lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		perW    = 10000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Exercise get-or-create concurrently too.
			c := r.Counter("conc.count")
			h := r.Histogram("conc.hist")
			g := r.Gauge("conc.gauge")
			for i := 0; i < perW; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i%1000 + 1))
			}
		}(w)
	}
	// A concurrent reader snapshotting mid-flight must not race.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	const want = workers * perW
	if v := r.Counter("conc.count").Value(); v != want {
		t.Errorf("counter lost increments: %d, want %d", v, want)
	}
	if v := r.Gauge("conc.gauge").Value(); v != want {
		t.Errorf("gauge lost adds: %d, want %d", v, want)
	}
	if v := r.Histogram("conc.hist").count.Load(); v != want {
		t.Errorf("histogram lost observations: %d, want %d", v, want)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1025, 11},
		{math.MaxInt64, 63},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.v); got != tc.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.bucket)
		}
	}
	// The [Low, High] ranges must tile the positive integers exactly.
	for i := 1; i < numBuckets-1; i++ {
		if BucketHigh(i)+1 != BucketLow(i+1) {
			t.Errorf("gap between bucket %d high %d and bucket %d low %d",
				i, BucketHigh(i), i+1, BucketLow(i+1))
		}
		if bucketOf(int64(BucketLow(i))) != i && i <= 63 {
			t.Errorf("BucketLow(%d)=%d maps to bucket %d", i, BucketLow(i), bucketOf(int64(BucketLow(i))))
		}
	}
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 1024, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Sum != 1025 {
		t.Fatalf("snapshot count/sum = %d/%d, want 6/1025", s.Count, s.Sum)
	}
	// Bucket 0 holds {0, -5}, bucket 1 {1}, bucket 2 {2, 3}, bucket 11 {1024}.
	wantCounts := map[uint64]uint64{0: 2, 1: 1, 2: 2, 1024: 1}
	if len(s.Buckets) != len(wantCounts) {
		t.Fatalf("non-empty buckets = %+v", s.Buckets)
	}
	for _, b := range s.Buckets {
		if wantCounts[b.Low] != b.Count {
			t.Errorf("bucket low=%d count=%d, want %d", b.Low, b.Count, wantCounts[b.Low])
		}
	}
	if s.Max != BucketHigh(11) {
		t.Errorf("Max = %d, want %d", s.Max, BucketHigh(11))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 99; i++ {
		h.Observe(100) // bucket 7: [64,127]
	}
	h.Observe(100000) // bucket 17
	s := h.Snapshot()
	if s.P50 < 64 || s.P50 > 127 {
		t.Errorf("P50 = %v, want within [64,127]", s.P50)
	}
	if s.P99 < float64(BucketLow(17)) || s.P99 > float64(BucketHigh(17)) {
		t.Errorf("P99 = %v, want within bucket 17 %d..%d", s.P99, BucketLow(17), BucketHigh(17))
	}
}

// TestSnapshotDeterminism: identical registry state must marshal to
// byte-identical JSON, independent of metric creation or map iteration
// order.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, name := range order {
			r.Counter("c." + name).Add(3)
			r.Gauge("g." + name).Set(9)
			r.Histogram("h." + name).Observe(42)
		}
		return r
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	aj, err := a.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Errorf("snapshots of identical state differ:\n%s\nvs\n%s", aj, bj)
	}
	cj, err := a.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, cj) {
		t.Error("re-snapshotting unchanged state changed the JSON")
	}
}

// TestDebugVarsParseable serves DebugHandler over HTTP and checks that
// /debug/vars is valid JSON containing the netcluster snapshot — the
// same check the clusterd integration test performs against the real
// binary.
func TestDebugVarsParseable(t *testing.T) {
	C("debugtest.count").Add(11)
	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Netcluster Snapshot `json:"netcluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not parseable JSON: %v", err)
	}
	if vars.Netcluster.Counters["debugtest.count"] != 11 {
		t.Errorf("netcluster expvar missing counter: %+v", vars.Netcluster.Counters)
	}
	// The pprof index must be mounted too.
	pr, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != 200 {
		t.Errorf("/debug/pprof/ status %d", pr.StatusCode)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/snap.json"
	C("writefile.count").Inc()
	if err := WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("snapshot file is not valid JSON: %v", err)
	}
	if s.Counters["writefile.count"] == 0 {
		t.Error("snapshot file missing counter")
	}
}

// Benchmarks document the unit costs the ≤1% overhead budget is computed
// from (see TestInstrumentationOverheadBudget at the repo root).

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench.count")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench.hist")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// distribution by locating the bucket holding the q·count-th observation
// and interpolating linearly within it — exact when observations are
// uniform inside the bucket, and always inside the bucket's bounds.
func (h *Histogram) Quantile(q float64) float64 {
	var counts [numBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return quantile(&counts, total, q)
}
