package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/weblog"
)

func TestBoundedConfigValidate(t *testing.T) {
	if err := (BoundedConfig{}).Validate(); err != nil {
		t.Fatalf("zero config (all defaults) rejected: %v", err)
	}
	if err := (BoundedConfig{K: 100, Capacity: 10}).Validate(); err == nil {
		t.Fatal("capacity below K accepted")
	}
	if _, err := NewBoundedAccumulator(BoundedConfig{K: 100, Capacity: 10}); err == nil {
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
// seeded streams, with all-zero, all-nonzero and mixed request sizes
// (mixed is where a re-admitted cluster inherits a zero-byte victim).
// For every cluster, observed or not:
//
//   - the request estimate is ≥ the true count;
//   - an estimate flagged exact equals the true value, bytes included;
//   - an unmonitored cluster issued at most TailBound requests.
func TestBoundedAccumulatorProperties(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sizing := []string{"zero", "nonzero", "mixed"}[seed%3]
		cfg := BoundedConfig{K: 1, Capacity: 1 + rng.Intn(40)}
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
		trueReq := make(map[netutil.Prefix]uint64)
		trueByt := make(map[netutil.Prefix]uint64)
		var clustered, unclustered uint64
		acc, err := NewBoundedAccumulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		z := rand.NewZipf(rng, 1.05+rng.Float64(), 1, uint64(len(universe)-1))
		for n := rng.Intn(12000); n > 0; n-- {
			if rng.Intn(50) == 0 {
				acc.ObserveUnclustered()
				unclustered++
				continue
			}
			i := z.Uint64()
			p, sz := universe[i], size(i)
			acc.Observe(p, sz)
			trueReq[p]++
			trueByt[p] += uint64(sz)
			clustered++
		}
		where := fmt.Sprintf("seed %d (%s sizes, capacity %d)", seed, sizing, cfg.Capacity)
		if acc.Requests() != clustered+unclustered || acc.Unclustered() != unclustered {
			t.Fatalf("%s: totals %d/%d, want %d/%d", where,
				acc.Requests(), acc.Unclustered(), clustered+unclustered, unclustered)
		}
		for _, p := range universe {
			req, reqExact := acc.EstimateRequests(p)
			if req < trueReq[p] || (reqExact && req != trueReq[p]) {
				t.Fatalf("%s: %v requests %d (exact=%v), true %d", where, p, req, reqExact, trueReq[p])
			}
			e, monitored := acc.summary.Get(prefixKey(p))
			if monitored && e.Err == 0 && e.ByteErr == 0 && e.Bytes != trueByt[p] {
				t.Fatalf("%s: %v exact bytes %d, true %d", where, p, e.Bytes, trueByt[p])
			}
			if !monitored && trueReq[p] > acc.TailBound() {
				t.Fatalf("%s: unmonitored %v issued %d requests, above the tail bound %d", where, p, trueReq[p], acc.TailBound())
			}
		}
	}
}

// TestBoundedObserveAllocs: Observe allocates nothing on a summary hit
// nor on a takeover.
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

// EstimateRequests returns an upper-bound request count for any
// cluster. exact is true when the cluster is monitored eviction-free
// (the value equals the true count). A monitored cluster answers its
// counter, an unmonitored one the summary's eviction threshold.
func (b *BoundedAccumulator) EstimateRequests(p netutil.Prefix) (est uint64, exact bool) {
	if e, ok := b.summary.Get(prefixKey(p)); ok {
		return e.Count, e.Err == 0
	}
	return b.summary.MinCount(), false
}
