package cluster

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/sketch"
	"github.com/netaware/netcluster/internal/weblog"
)

func TestBoundedConfigValidate(t *testing.T) {
	if err := (BoundedConfig{}).Validate(); err != nil {
		t.Fatalf("zero config (all defaults) rejected: %v", err)
	}
	for _, bad := range []BoundedConfig{
		{K: 100, Capacity: 10},
		{Epsilon: 2},
		{Delta: -1},
		{Spill: "teleport"},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
	if _, err := NewBoundedAccumulator(BoundedConfig{Spill: "nope"}); err == nil {
		t.Fatal("constructor accepted invalid config")
	}
}

func TestPrefixKeyRoundTrip(t *testing.T) {
	for _, p := range []netutil.Prefix{
		mustPrefix(t, "0.0.0.0/0"),
		mustPrefix(t, "12.0.0.0/8"),
		mustPrefix(t, "192.168.4.0/22"),
		mustPrefix(t, "255.255.255.255/32"),
	} {
		if got := keyPrefix(prefixKey(p)); got != p {
			t.Fatalf("%v round-tripped to %v", p, got)
		}
	}
}

func mustPrefix(t *testing.T, s string) netutil.Prefix {
	t.Helper()
	p, err := netutil.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBoundedExactWhileUnderCapacity: with fewer distinct clusters
// than capacity the accumulator IS the exact accumulator — every
// count and byte total exact, zero evictions, guaranteed top-K.
func TestBoundedExactWhileUnderCapacity(t *testing.T) {
	acc, err := NewBoundedAccumulator(BoundedConfig{K: 4, Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	prefixes := []netutil.Prefix{
		mustPrefix(t, "10.0.0.0/8"),
		mustPrefix(t, "12.64.0.0/12"),
		mustPrefix(t, "192.168.0.0/16"),
	}
	for i := 0; i < 300; i++ {
		p := prefixes[i%3]
		acc.Observe(p, int64(100+i%3))
	}
	acc.ObserveUnclustered()
	if acc.Requests() != 301 || acc.Unclustered() != 1 {
		t.Fatalf("totals: %d requests, %d unclustered", acc.Requests(), acc.Unclustered())
	}
	if acc.Evictions() != 0 || acc.Occupancy() != 3 {
		t.Fatalf("evictions %d occupancy %d", acc.Evictions(), acc.Occupancy())
	}
	for _, p := range prefixes {
		est, exact := acc.EstimateRequests(p)
		if !exact || est != 100 {
			t.Fatalf("%v: estimate %d exact=%v, want 100 exact", p, est, exact)
		}
	}
	if !acc.GuaranteedTopK(3) {
		t.Fatal("under-capacity top-K not guaranteed")
	}
	busy := acc.Busy(4)
	if len(busy) != 3 {
		t.Fatalf("busy(4) returned %d clusters", len(busy))
	}
	for _, b := range busy {
		if !b.Exact || b.RequestsErr != 0 || b.BytesErr != 0 {
			t.Fatalf("under-capacity entry not exact: %+v", b)
		}
	}
}

// TestBoundedSpillPolicies: under SpillSketch an evicted cluster stays
// queryable within ε·N; under SpillDrop the estimate degrades to the
// eviction threshold, and the two policies refuse to merge.
func TestBoundedSpillPolicies(t *testing.T) {
	sk, err := NewBoundedAccumulator(BoundedConfig{K: 2, Capacity: 2, Epsilon: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	dr, err := NewBoundedAccumulator(BoundedConfig{K: 2, Capacity: 2, Spill: SpillDrop})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := mustPrefix(t, "10.0.0.0/8"), mustPrefix(t, "11.0.0.0/8"), mustPrefix(t, "12.0.0.0/8")
	for _, acc := range []*BoundedAccumulator{sk, dr} {
		for i := 0; i < 50; i++ {
			acc.Observe(a, 10)
			acc.Observe(b, 10)
		}
		acc.Observe(c, 10) // evicts one of the two monitored entries
		if acc.Evictions() == 0 {
			t.Fatal("full summary did not evict")
		}
	}
	if est, _ := sk.EstimateRequests(b); est < 50 || est > 50+sk.ErrorBound()+1 {
		t.Fatalf("sketch-spill estimate %d outside [50, 50+εN=%d]", est, 50+sk.ErrorBound())
	}
	if dr.ErrorBound() != 0 {
		t.Fatal("drop policy reports a sketch error bound")
	}
	if err := sk.Merge(dr); err == nil {
		t.Fatal("cross-policy merge accepted")
	}
}

// TestBoundedMerge: sharded accumulators merge into one whose busy set
// covers the union, with totals summed exactly.
func TestBoundedMerge(t *testing.T) {
	cfg := BoundedConfig{K: 8, Capacity: 128}
	a, _ := NewBoundedAccumulator(cfg)
	b, _ := NewBoundedAccumulator(cfg)
	p1, p2 := mustPrefix(t, "10.0.0.0/8"), mustPrefix(t, "20.0.0.0/8")
	for i := 0; i < 40; i++ {
		a.Observe(p1, 100)
		b.Observe(p2, 50)
	}
	b.Observe(p1, 100)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Requests() != 81 || a.Bytes() != 40*100+40*50+100 {
		t.Fatalf("merged totals: %d requests, %d bytes", a.Requests(), a.Bytes())
	}
	if est, exact := a.EstimateRequests(p1); !exact || est != 41 {
		t.Fatalf("merged p1 estimate %d exact=%v, want 41 exact", est, exact)
	}
	if est, exact := a.EstimateRequests(p2); !exact || est != 40 {
		t.Fatalf("merged p2 estimate %d exact=%v, want 40 exact", est, exact)
	}
}

// TestClusterStreamBoundedMatchesExact: on a real (small) CLF stream
// the bounded pass and the exact streaming pass agree on the busy
// clusters' request and byte totals — the in-memory analogue of the
// firehose acceptance, runnable on every `go test`.
func TestClusterStreamBoundedMatchesExact(t *testing.T) {
	world, c := fhSetup(t)
	l, err := weblog.Generate(world, weblog.Nagano(0.01))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := weblog.WriteCLF(&buf, l); err != nil {
		t.Fatal(err)
	}
	clf := buf.Bytes()

	exact, err := ClusterStream(bytes.NewReader(clf), c)
	if err != nil {
		t.Fatal(err)
	}
	const K = 10
	res, err := ClusterStreamBounded(bytes.NewReader(clf), c, BoundedConfig{K: K, Capacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRequests != exact.TotalRequests {
		t.Fatalf("record totals diverge: bounded %d, exact %d", res.TotalRequests, exact.TotalRequests)
	}
	if !res.Acc.GuaranteedTopK(K) {
		t.Fatalf("top-%d not guaranteed with %dx capacity headroom", K, 1024/K)
	}
	for i, b := range res.Busy {
		ec, ok := exact.Clusters[b.Prefix]
		if !ok {
			t.Fatalf("busy[%d] %v unknown to the exact pass", i, b.Prefix)
		}
		if uint64(ec.Requests) != b.Requests || uint64(ec.Bytes) != b.Bytes {
			t.Fatalf("busy[%d] %v: bounded (%d req, %d B) vs exact (%d req, %d B)",
				i, b.Prefix, b.Requests, b.Bytes, ec.Requests, ec.Bytes)
		}
		if !b.Exact {
			t.Fatalf("busy[%d] %v not flagged exact", i, b.Prefix)
		}
	}
}

// TestBoundedAccumulatorProperties is the accumulator's contract over
// seeded streams split across 1–3 shards and merged, under both spill
// policies, with all-zero, all-nonzero and mixed request sizes (mixed
// is where a re-admitted cluster inherits a zero-byte victim). For
// every cluster, observed or not:
//
//   - the request estimate is ≥ the true count, and so is the byte
//     estimate wherever a byte sketch exists (SpillSketch);
//   - an estimate flagged exact equals the true value;
//   - an unmonitored cluster's estimates are ≤ a plain-update
//     count-min of the whole stream with the tail's dimensions — the
//     spill sketch only ever holds part of what that sketch holds;
//
// and ErrorBound is ⌈ε·clustered⌉ for the tail's ε (0 under SpillDrop).
func TestBoundedAccumulatorProperties(t *testing.T) {
	const eps, delta = 0.01, 0.05
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spill := []SpillPolicy{SpillSketch, SpillDrop}[seed%2]
		sizing := []string{"zero", "nonzero", "mixed"}[seed/2%3]
		cfg := BoundedConfig{K: 1, Capacity: 1 + rng.Intn(40), Epsilon: eps, Delta: delta, Spill: spill}
		universe := make([]netutil.Prefix, 2+rng.Intn(300))
		for i := range universe {
			bits := 16 + rng.Intn(9)
			universe[i] = netutil.PrefixFrom(netutil.Addr(uint32(i+1)<<(32-bits)), bits)
		}
		size := func(i uint64) int64 {
			switch {
			case sizing == "zero", sizing == "mixed" && i%3 == 0:
				return 0
			}
			return int64(1 + rng.Intn(1500))
		}
		plainReq, _ := sketch.NewCountMinError(eps, delta)
		plainByt, _ := sketch.NewCountMinError(eps, delta)
		trueReq := make(map[netutil.Prefix]uint64)
		trueByt := make(map[netutil.Prefix]uint64)
		var acc *BoundedAccumulator
		var clustered, unclustered, bytesTotal uint64
		shards := 1 + rng.Intn(3)
		for sh := 0; sh < shards; sh++ {
			a, err := NewBoundedAccumulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			z := rand.NewZipf(rng, 1.05+rng.Float64(), 1, uint64(len(universe)-1))
			for n := rng.Intn(4000); n > 0; n-- {
				if rng.Intn(50) == 0 {
					a.ObserveUnclustered()
					unclustered++
					continue
				}
				i := z.Uint64()
				p, sz := universe[i], size(i)
				a.Observe(p, sz)
				trueReq[p]++
				trueByt[p] += uint64(sz)
				plainReq.Add(prefixKey(p), 1)
				plainByt.Add(prefixKey(p), uint64(sz))
				clustered++
				bytesTotal += uint64(sz)
			}
			if acc == nil {
				acc = a
			} else if err := acc.Merge(a); err != nil {
				t.Fatal(err)
			}
		}
		where := fmt.Sprintf("seed %d (%s, %s sizes, capacity %d, %d shards)", seed, spill, sizing, cfg.Capacity, shards)
		if acc.Requests() != clustered+unclustered || acc.Bytes() != bytesTotal || acc.Unclustered() != unclustered {
			t.Fatalf("%s: totals %d/%d/%d, want %d/%d/%d", where,
				acc.Requests(), acc.Bytes(), acc.Unclustered(), clustered+unclustered, bytesTotal, unclustered)
		}
		wantBound := uint64(0)
		if spill == SpillSketch {
			wantBound = uint64(math.Ceil(plainReq.Epsilon() * float64(clustered)))
		}
		if got := acc.ErrorBound(); got != wantBound {
			t.Fatalf("%s: ErrorBound %d, want ⌈ε·%d⌉ = %d", where, got, clustered, wantBound)
		}
		for _, p := range universe {
			req, reqExact := acc.EstimateRequests(p)
			byt, bytExact := acc.EstimateBytes(p)
			if req < trueReq[p] || (reqExact && req != trueReq[p]) {
				t.Fatalf("%s: %v requests %d (exact=%v), true %d", where, p, req, reqExact, trueReq[p])
			}
			if (spill == SpillSketch && byt < trueByt[p]) || (bytExact && byt != trueByt[p]) {
				t.Fatalf("%s: %v bytes %d (exact=%v), true %d", where, p, byt, bytExact, trueByt[p])
			}
			if _, monitored := acc.summary.Get(prefixKey(p)); !monitored && spill == SpillSketch {
				if max := plainReq.Estimate(prefixKey(p)); req > max {
					t.Fatalf("%s: unmonitored %v requests %d above the whole-stream sketch's %d", where, p, req, max)
				}
				if max := plainByt.Estimate(prefixKey(p)); byt > max {
					t.Fatalf("%s: unmonitored %v bytes %d above the whole-stream sketch's %d", where, p, byt, max)
				}
			}
		}
	}
}

// TestBoundedMergeRejectedLeavesReceiver: a merge refused for a
// mismatched capacity, spill policy, ε or δ changes nothing the
// receiver reports — the checks run before either structure is
// touched.
func TestBoundedMergeRejectedLeavesReceiver(t *testing.T) {
	base := BoundedConfig{K: 4, Capacity: 16, Epsilon: 1e-3, Delta: 0.01}
	universe := make([]netutil.Prefix, 64)
	for i := range universe {
		universe[i] = netutil.PrefixFrom(netutil.Addr(uint32(i+1)<<8), 24)
	}
	fill := func(cfg BoundedConfig, seed int64) *BoundedAccumulator {
		acc, err := NewBoundedAccumulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			acc.Observe(universe[rng.Intn(len(universe))], int64(rng.Intn(900)))
		}
		return acc
	}
	type estimate struct {
		req, byt           uint64
		reqExact, bytExact bool
	}
	type view struct {
		Requests, Bytes, ErrorBound uint64
		Busy                        []BusyCluster
		Estimates                   []estimate
	}
	look := func(acc *BoundedAccumulator) view {
		v := view{Requests: acc.Requests(), Bytes: acc.Bytes(), ErrorBound: acc.ErrorBound(), Busy: acc.Busy(base.Capacity)}
		for _, p := range universe {
			var e estimate
			e.req, e.reqExact = acc.EstimateRequests(p)
			e.byt, e.bytExact = acc.EstimateBytes(p)
			v.Estimates = append(v.Estimates, e)
		}
		return v
	}
	for name, edit := range map[string]func(*BoundedConfig){
		"capacity": func(c *BoundedConfig) { c.Capacity = 32 },
		"spill":    func(c *BoundedConfig) { c.Spill = SpillDrop },
		"epsilon":  func(c *BoundedConfig) { c.Epsilon = 1e-2 },
		"delta":    func(c *BoundedConfig) { c.Delta = 1e-4 },
	} {
		other := base
		edit(&other)
		acc := fill(base, 1)
		before := look(acc)
		if err := acc.Merge(fill(other, 2)); err == nil {
			t.Fatalf("%s: mismatched merge accepted", name)
		}
		if after := look(acc); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: rejected merge changed what the receiver reports", name)
		}
	}
}

// TestBoundedObserveAllocs: Observe allocates nothing on a summary hit
// nor on a takeover that spills its victim into both tail sketches.
func TestBoundedObserveAllocs(t *testing.T) {
	a, b := mustPrefix(t, "10.0.0.0/8"), mustPrefix(t, "11.0.0.0/8")
	hit, err := NewBoundedAccumulator(BoundedConfig{K: 1, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { hit.Observe(a, 512) }); n != 0 {
		t.Fatalf("hit: %v allocs/op, want 0", n)
	}
	// One counter, two clusters taking turns: every Observe is a takeover.
	take, err := NewBoundedAccumulator(BoundedConfig{K: 1, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		i++
		take.Observe([]netutil.Prefix{a, b}[i&1], 512)
	}); n != 0 {
		t.Fatalf("takeover: %v allocs/op, want 0", n)
	}
	if take.Evictions() < 1000 {
		t.Fatalf("%d evictions over 1001 alternating observations", take.Evictions())
	}
}
