package cache

import (
	"testing"

	"github.com/netaware/netcluster/internal/weblog"
)

func resources() []weblog.Resource {
	return []weblog.Resource{
		{Path: "/a", Size: 1000, ChangePeriod: 0},    // immutable
		{Path: "/b", Size: 2000, ChangePeriod: 1800}, // changes every 30 min
		{Path: "/c", Size: 4000, ChangePeriod: 0},
		{Path: "/d", Size: 500, ChangePeriod: 0},
	}
}

func TestMissThenHit(t *testing.T) {
	p := NewProxy(0, 3600, true)
	rs := resources()
	p.Request(rs, 0, 10)
	p.Request(rs, 0, 20)
	if p.Stats.Requests != 2 || p.Stats.Hits != 1 || p.Stats.FullFetches != 1 {
		t.Fatalf("stats = %+v", p.Stats)
	}
	if p.Stats.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %g", p.Stats.HitRatio())
	}
	if p.Stats.ByteHits != 1000 || p.Stats.Bytes != 2000 {
		t.Fatalf("bytes = %+v", p.Stats)
	}
}

func TestTTLExpiryImmutable304(t *testing.T) {
	p := NewProxy(0, 3600, false)
	rs := resources()
	p.Request(rs, 0, 0)
	p.Request(rs, 0, 4000) // stale; immutable → 304 → hit
	if p.Stats.Hits != 1 {
		t.Fatalf("stale immutable access must validate to a hit: %+v", p.Stats)
	}
	if p.Stats.SyncValidations != 1 {
		t.Fatalf("expected a synchronous validation: %+v", p.Stats)
	}
	// After revalidation the clock restarts.
	p.Request(rs, 0, 5000)
	if p.Stats.Hits != 2 || p.Stats.SyncValidations != 1 {
		t.Fatalf("revalidated entry must be fresh: %+v", p.Stats)
	}
}

func TestTTLExpiryModifiedRefetch(t *testing.T) {
	p := NewProxy(0, 3600, false)
	rs := resources()
	p.Request(rs, 1, 0)    // version 0
	p.Request(rs, 1, 4000) // stale; modified at 3600 → full fetch
	if p.Stats.Hits != 0 || p.Stats.FullFetches != 2 {
		t.Fatalf("modified stale access must refetch: %+v", p.Stats)
	}
}

func TestFreshWithinTTLDespiteModification(t *testing.T) {
	// TTL semantics: within TTL the proxy serves potentially stale content
	// without checking (that is the whole point of TTL-based freshness).
	p := NewProxy(0, 3600, false)
	rs := resources()
	p.Request(rs, 1, 0)
	p.Request(rs, 1, 3599) // resource changed at 1800, but TTL not lapsed
	if p.Stats.Hits != 1 {
		t.Fatalf("within-TTL access must hit: %+v", p.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	p := NewProxy(5000, 3600, false)
	rs := resources()
	p.Request(rs, 0, 1) // 1000
	p.Request(rs, 1, 2) // +2000 = 3000
	p.Request(rs, 2, 3) // +4000 = 7000 → evict /a (LRU), then /b → 4000
	if p.used > 5000 {
		t.Fatalf("used = %d exceeds capacity", p.used)
	}
	if p.Stats.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	// /a was evicted: next access misses.
	hitsBefore := p.Stats.Hits
	p.Request(rs, 0, 4)
	if p.Stats.Hits != hitsBefore {
		t.Fatal("evicted entry must miss")
	}
}

func TestLRUOrderUpdatedOnHit(t *testing.T) {
	p := NewProxy(3200, 3600, false)
	rs := resources()
	p.Request(rs, 0, 1) // 1000
	p.Request(rs, 1, 2) // 2000 → 3000 total
	p.Request(rs, 0, 3) // hit → /a now MRU
	p.Request(rs, 3, 4) // +500 → 3500 > 3200 → evict LRU = /b
	hitsBefore := p.Stats.Hits
	p.Request(rs, 0, 5) // /a must still be cached
	if p.Stats.Hits != hitsBefore+1 {
		t.Fatal("recently used /a should have survived eviction")
	}
}

func TestPCVPiggybackAvoidsSyncValidation(t *testing.T) {
	rs := resources()
	// With PCV: /a expires; a miss on /d contacts the server and
	// piggybacks /a's validation; the later /a access is then fresh.
	pcv := NewProxy(0, 3600, true)
	pcv.Request(rs, 0, 0)
	pcv.Tick(4000)           // /a queued as expired
	pcv.Request(rs, 3, 4100) // miss → server contact → piggyback validates /a
	pcv.Request(rs, 0, 4200) // fresh again
	if pcv.Stats.SyncValidations != 0 {
		t.Fatalf("PCV should have avoided sync validation: %+v", pcv.Stats)
	}
	if pcv.Stats.Validations != 1 {
		t.Fatalf("expected exactly one piggybacked validation: %+v", pcv.Stats)
	}

	// Without PCV the same access pattern validates synchronously.
	plain := NewProxy(0, 3600, false)
	plain.Request(rs, 0, 0)
	plain.Tick(4000)
	plain.Request(rs, 3, 4100)
	plain.Request(rs, 0, 4200)
	if plain.Stats.SyncValidations != 1 {
		t.Fatalf("plain TTL must validate synchronously: %+v", plain.Stats)
	}
}

func TestPCVDropsModifiedEntries(t *testing.T) {
	rs := resources()
	p := NewProxy(0, 3600, true)
	p.Request(rs, 1, 0) // /b cached, version 0
	p.Tick(4000)
	p.Request(rs, 3, 4100) // piggyback validation finds /b modified (at 3600) → dropped
	fetchesBefore := p.Stats.FullFetches
	p.Request(rs, 1, 4200) // must be a miss now
	if p.Stats.FullFetches != fetchesBefore+1 {
		t.Fatalf("modified entry must have been dropped: %+v", p.Stats)
	}
}

func TestPiggybackLimit(t *testing.T) {
	rs := make([]weblog.Resource, 30)
	for i := range rs {
		rs[i] = weblog.Resource{Path: "/x", Size: 10}
	}
	p := NewProxy(0, 3600, true)
	p.PiggybackLimit = 2
	for i := int32(0); i < 20; i++ {
		p.Request(rs, i, 0)
	}
	// Every tick probes the same LRU tail: /0 … /7 queue, coldest first.
	for i := 0; i < 10; i++ {
		p.Tick(4000)
	}
	// Each server contact validates the next two in queueing order, so
	// which entries get validated never depends on map iteration order.
	for contact, at := range []uint32{4100, 4200} {
		valsBefore := p.Stats.Validations
		p.Request(rs, int32(25+contact), at) // a miss: one server contact
		if got := p.Stats.Validations - valsBefore; got != 2 {
			t.Fatalf("contact %d piggybacked %d validations, limit is 2", contact, got)
		}
		for url := int32(0); url < 8; url++ {
			want := uint32(0) // still stale, still queued
			if int(url) < 2*(contact+1) {
				want = 4100 + 100*uint32(url/2)
			}
			if got := p.items[url].Value.(*entry).validatedAt; got != want {
				t.Fatalf("after contact %d, /%d was validated at %d, want %d", contact, url, got, want)
			}
		}
	}
}

func TestUnboundedCacheNeverEvicts(t *testing.T) {
	p := NewProxy(0, 3600, false)
	rs := resources()
	for i := 0; i < 4; i++ {
		p.Request(rs, int32(i), uint32(i))
	}
	if p.Stats.Evictions != 0 || p.lru.Len() != 4 {
		t.Fatalf("unbounded cache evicted: %+v", p.Stats)
	}
}

func TestMeanLatency(t *testing.T) {
	s := Stats{Requests: 10, FullFetches: 4, SyncValidations: 1}
	// 10 proxy RTTs (10ms) + 5 origin RTTs (100ms) = 600ms over 10 requests.
	if got := s.MeanLatency(10, 100); got != 60 {
		t.Fatalf("MeanLatency = %g, want 60", got)
	}
	var idle Stats
	if idle.MeanLatency(10, 100) != 0 {
		t.Fatal("idle proxy must report zero latency")
	}
	// A perfect cache costs only the proxy RTT.
	perfect := Stats{Requests: 5, Hits: 5}
	if got := perfect.MeanLatency(10, 100); got != 10 {
		t.Fatalf("all-hit MeanLatency = %g, want 10", got)
	}
}

func TestLatencyImprovesWithCaching(t *testing.T) {
	// End to end: a proxy with locality must beat the no-cache baseline
	// (every request pays the origin RTT).
	p := NewProxy(0, 3600, true)
	rs := resources()
	for i := 0; i < 100; i++ {
		p.Request(rs, int32(i%3), uint32(i))
	}
	withCache := p.Stats.MeanLatency(10, 100)
	noCache := 10.0 + 100.0
	if withCache >= noCache {
		t.Fatalf("caching latency %g must beat no-cache %g", withCache, noCache)
	}
}

func TestStatsRatiosEmpty(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 || s.ByteHitRatio() != 0 {
		t.Fatal("empty stats must have zero ratios")
	}
}

func TestRequestPanicsOnBadURL(t *testing.T) {
	p := NewProxy(0, 3600, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Request(resources(), 99, 0)
}

func TestDefaultTTL(t *testing.T) {
	p := NewProxy(0, 0, true)
	if p.TTL != 3600 {
		t.Fatalf("default TTL = %d, want 3600", p.TTL)
	}
}

// MeanLatency estimates the client-perceived mean response latency under
// a two-level delay model: cache hits cost one proxy round trip, full
// fetches and synchronous validations additionally cost an origin round
// trip (piggybacked validations are free — that is PCV's point). Lowering
// exactly this number is the paper's motivation for placing proxies in
// front of clusters.
func (s Stats) MeanLatency(proxyRTT, originRTT float64) float64 {
	if s.Requests == 0 {
		return 0
	}
	total := float64(s.Requests)*proxyRTT +
		float64(s.FullFetches+s.SyncValidations)*originRTT
	return total / float64(s.Requests)
}
