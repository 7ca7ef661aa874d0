package main

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {25, 3}, {10, 1}, {1, 1},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
	// 1000 samples leave exactly ten beyond p99; 999 leave nine.
	if samplesBeyond(1000, 99) != 10 || samplesBeyond(999, 99) != 9 || samplesBeyond(200, 95) != 10 {
		t.Errorf("samplesBeyond: got %d %d %d", samplesBeyond(1000, 99), samplesBeyond(999, 99), samplesBeyond(200, 95))
	}
}

func TestWindowRanks(t *testing.T) {
	// Sixteen windows, ten slowed (rates 10..19, latencies 70..79) and
	// three lucky (rates 97, 98, 99, latencies 1, 2, 3): the quartile
	// ranks step over the lucky ones and never see the slowed.
	rates := []float64{10, 11, 12, 99, 13, 14, 50, 98, 15, 16, 51, 17, 18, 52, 97, 19}
	lats := []float64{70, 71, 72, 1, 73, 74, 5.2, 2, 75, 76, 5.1, 77, 78, 5, 3, 79}
	if got := upperQuartile(rates); got != 52 {
		t.Errorf("upperQuartile = %g, want 52", got)
	}
	if got := lowerQuartile(lats); got != 5 {
		t.Errorf("lowerQuartile = %g, want 5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if !sort.Float64sAreSorted(sortedCopy(rates)) || rates[0] != 10 {
		t.Error("sortedCopy must sort a copy and leave its argument alone")
	}
}

func TestPooledTail(t *testing.T) {
	// Sixteen windows of twelve operations: ten at 1..12 ms, six slowed
	// tenfold. The pooled tail sets the six aside and reads p90 off the
	// 120 operations of the rest: the 108th smallest, an 11.
	var windows [][]float64
	for w := 0; w < 16; w++ {
		scale := 1.0
		if w%3 == 0 { // windows 0 3 6 9 12 15
			scale = 10
		}
		var lat []float64
		for i := 1; i <= 12; i++ {
			lat = append(lat, scale*float64(i))
		}
		windows = append(windows, lat)
	}
	var lws []loopWindow
	for w := range windows {
		rate := 100
		if w%3 == 0 {
			rate = 10
		}
		lws = append(lws, loopWindow{seconds: 1, items: rate})
	}
	kept := keptWindows(lws)
	if len(kept) != 10 {
		t.Fatalf("kept %d windows, want 10", len(kept))
	}
	for _, w := range kept {
		if w%3 == 0 {
			t.Errorf("slowed window %d was kept", w)
		}
	}
	got, err := pooledTail(windows, kept, 90)
	if err != nil || got != 11 {
		t.Errorf("pooledTail = %g, %v; want 11", got, err)
	}
	// p95 would leave six samples beyond it: refused.
	if _, err := pooledTail(windows, kept, 95); err == nil {
		t.Error("a percentile with fewer than ten samples beyond it must be refused")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Errorf("quartiles(3,1,4,1,5,9,2,6) = %g %g %g, want 1.25 3.5 5.75", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		// A request of 100 ms with two stages back to back and a gap.
		{ID: 0, Parent: -1, Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Start: 30 * ms, End: 60 * ms},
		// A grandchild takes time from its parent only.
		{ID: 3, Parent: 2, Start: 35 * ms, End: 45 * ms},
		// A fan-out of 50 ms whose two shards overlap: [0,30] and [20,45]
		// cover 45 ms together, not 55.
		{ID: 4, Parent: -1, Start: 200 * ms, End: 250 * ms},
		{ID: 5, Parent: 4, Start: 200 * ms, End: 230 * ms},
		{ID: 6, Parent: 4, Start: 220 * ms, End: 245 * ms},
		// A child that sticks out of its parent is clipped to it.
		{ID: 7, Parent: -1, Start: 300 * ms, End: 310 * ms},
		{ID: 8, Parent: 7, Start: 305 * ms, End: 400 * ms},
		// A child nested inside another child's interval adds nothing.
		{ID: 9, Parent: 4, Start: 205 * ms, End: 210 * ms},
	}
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 10 * ms, 5 * ms, 30 * ms, 25 * ms, 5 * ms, 95 * ms, 5 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSplitWindowsByCompletion(t *testing.T) {
	s := time.Second
	ph := &phase{
		edges: []edge{{at: 2 * s, sysCPU: 1}, {at: 3 * s, sysCPU: 2.5}, {at: 4 * s, sysCPU: 3}},
		ops: [][]opRec{{
			{start: 1 * s, end: 1900 * time.Millisecond, ok: true, clustered: 4},                   // warm-up
			{start: 1900 * time.Millisecond, end: 2100 * time.Millisecond, ok: true, clustered: 4}, // window 0
			{start: 2100 * time.Millisecond, end: 2900 * time.Millisecond, ok: false},              // window 0, failed
			{start: 2900 * time.Millisecond, end: 3500 * time.Millisecond, ok: true, clustered: 3}, // window 1
			{start: 3500 * time.Millisecond, end: 4200 * time.Millisecond, ok: true, clustered: 4}, // after the end
		}},
	}
	ws := ph.splitWindows(4)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	if ws[0].ops != 2 || ws[0].failed != 1 || ws[0].items != 4 || ws[0].clustered != 4 || ws[0].sysCPU != 1.5 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[1].ops != 1 || ws[1].items != 4 || ws[1].clustered != 3 || len(ws[1].latMS) != 1 || ws[1].latMS[0] != 600 {
		t.Errorf("window 1 = %+v", ws[1])
	}
}

func TestInspect(t *testing.T) {
	ok := []byte(`{"map_version":1,"generation":3,"results":[{"addr":"1.2.3.4","clustered":true,"prefix":"1.2.0.0/16","kind":"BGP routing table","generation":3,"shard":0},{"addr":"9.9.9.9","clustered":false,"generation":3,"shard":0}],"shards":[{"id":0,"addr":"http://127.0.0.1:1","generation":3,"addrs":2}]}`)
	if c, good := inspect(200, ok, 2); !good || c != 1 {
		t.Errorf("healthy answer: clustered=%d ok=%v", c, good)
	}
	if _, good := inspect(503, ok, 2); good {
		t.Error("a 503 must count as failed")
	}
	if _, good := inspect(200, ok, 3); good {
		t.Error("a short answer must count as failed")
	}
	degraded := bytes.Replace(ok, []byte(`"shards"`), []byte(`"degradation":{"1":"down"},"shards"`), 1)
	if _, good := inspect(200, degraded, 2); good {
		t.Error("a degraded shard must count as failed")
	}
	rowErr := bytes.Replace(ok, []byte(`"shard":0}]`), []byte(`"shard":0,"error":"x"}]`), 1)
	if _, good := inspect(200, rowErr, 2); good {
		t.Error("a per-row error must count as failed")
	}
}

// Same seed, byte-identical request bodies and CLF log; another seed,
// different ones. A small world keeps this fast.
func TestGeneratorDeterminism(t *testing.T) {
	w, err := genWorld(300)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) ([][]byte, []byte) {
		addrs, err := w.addrs(4*batchAddrs, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, clf, err := w.clfLog(seed)
		if err != nil {
			t.Fatal(err)
		}
		return batchBodies(addrs, batchAddrs), clf
	}
	b1, l1 := gen(7)
	b2, l2 := gen(7)
	b3, l3 := gen(8)
	if len(b1) != 4 || bytes.Count(b1[0], []byte{'\n'}) != batchAddrs {
		t.Fatalf("want 4 bodies of %d lines", batchAddrs)
	}
	for i := range b1 {
		if !bytes.Equal(b1[i], b2[i]) {
			t.Fatalf("seed 7 twice: body %d differs", i)
		}
	}
	if !bytes.Equal(l1, l2) {
		t.Fatal("seed 7 twice: CLF log differs")
	}
	if bytes.Equal(b1[0], b3[0]) || bytes.Equal(l1, l3) {
		t.Fatal("seeds 7 and 8 generated the same inputs")
	}
	// The churn schedule is an input too.
	d1, d2, d3 := w.churnGen(7).Next(), w.churnGen(7).Next(), w.churnGen(8).Next()
	if len(d1.Ops) == 0 || !reflect.DeepEqual(d1, d2) || reflect.DeepEqual(d1, d3) {
		t.Fatal("churn schedule is not a function of its seed")
	}
	// The dataset does not depend on the seed: both logs hold the same
	// records, rotated.
	if len(l1) != len(l3) {
		t.Fatalf("logs of two seeds differ in size: %d and %d bytes", len(l1), len(l3))
	}
}

// BENCHMARK.json and the program must name the same workloads, metrics
// and units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i] || m.Unit != unitOf[m.Name] {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i], unitOf[endToEnd[i]])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layers := perLayer()
	if len(bf.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(bf.PerLayer), len(layers))
	}
	listed := make(map[string]string)
	for _, m := range bf.PerLayer {
		listed[m.Name] = m.Unit
	}
	for _, name := range layers {
		if unit, ok := listed[name]; !ok || unit != unitOf[name] {
			t.Errorf("per-layer %s [%s]: BENCHMARK.json has [%s] (listed: %v)", name, unitOf[name], unit, ok)
		}
	}
}

func TestResultCompleteness(t *testing.T) {
	r := &result{}
	for _, n := range endToEnd[1:] {
		r.set(n, 1)
	}
	if err := r.complete(endToEnd); err == nil {
		t.Error("a result missing throughput_per_s must be refused")
	}
	r.set(endToEnd[0], 1)
	if err := r.complete(endToEnd); err != nil {
		t.Error(err)
	}
	r.set("made_up", 1)
	if err := r.complete(endToEnd); err == nil {
		t.Error("a result with an unlisted metric must be refused")
	}
}
