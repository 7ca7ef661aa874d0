package websim

import (
	"testing"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/detect"
	"github.com/netaware/netcluster/internal/inet"
	"github.com/netaware/netcluster/internal/weblog"
)

type fixture struct {
	world    *inet.Internet
	merged   *bgp.Merged
	naResult *cluster.Result
	siResult *cluster.Result
}

var cached *fixture

func setup(t *testing.T) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	wcfg := inet.DefaultConfig()
	wcfg.NumASes = 300
	wcfg.NumTierOne = 8
	world, err := inet.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := bgpsim.New(world, bgpsim.DefaultConfig())
	merged := bgpsim.Merge(sim.Collect())
	log, err := weblog.Generate(world, weblog.Nagano(0.02))
	if err != nil {
		t.Fatal(err)
	}
	// Eliminate detected spiders/proxies first, as the paper does.
	pre := cluster.ClusterLog(log, cluster.Simple{})
	bad := detect.FindingClients(detect.Detect(pre, detect.DefaultConfig()))
	clean := detect.Eliminate(log, bad)
	cached = &fixture{
		world:    world,
		merged:   merged,
		naResult: cluster.ClusterLog(clean, cluster.NetworkAware{Table: merged}),
		siResult: cluster.ClusterLog(clean, cluster.Simple{}),
	}
	return cached
}

func fixtureWorld(t *testing.T) *inet.Internet { return setup(t).world }
func fixtureTable(t *testing.T) *bgp.Merged    { return setup(t).merged }

func TestHitRatioGrowsWithCacheSize(t *testing.T) {
	f := setup(t)
	sizes := []int64{100 << 10, 1 << 20, 10 << 20, 100 << 20}
	outs := Sweep(f.naResult, DefaultConfig(), sizes)
	for i := 1; i < len(outs); i++ {
		if outs[i].HitRatio+0.01 < outs[i-1].HitRatio {
			t.Errorf("hit ratio fell with bigger cache: %.3f -> %.3f",
				outs[i-1].HitRatio, outs[i].HitRatio)
		}
	}
	last := outs[len(outs)-1]
	if last.HitRatio < 0.35 {
		t.Errorf("large-cache hit ratio = %.3f, expected substantial locality", last.HitRatio)
	}
	if last.HitRatio > 0.98 {
		t.Errorf("hit ratio = %.3f suspiciously perfect", last.HitRatio)
	}
}

func TestSimpleApproachUnderestimates(t *testing.T) {
	// Figure 11's headline: at large cache sizes the simple approach
	// under-estimates the server-observed hit and byte-hit ratios because
	// its fragmented clusters prevent proxy sharing.
	f := setup(t)
	cfg := DefaultConfig()
	cfg.CacheBytes = 100 << 20
	na := Simulate(f.naResult, cfg)
	si := Simulate(f.siResult, cfg)
	if si.HitRatio >= na.HitRatio {
		t.Errorf("simple (%.3f) should under-estimate network-aware (%.3f) hit ratio",
			si.HitRatio, na.HitRatio)
	}
	if si.ByteHitRatio >= na.ByteHitRatio {
		t.Errorf("simple (%.3f) should under-estimate network-aware (%.3f) byte hit ratio",
			si.ByteHitRatio, na.ByteHitRatio)
	}
}

func TestInfiniteCachePerProxy(t *testing.T) {
	f := setup(t)
	cfg := DefaultConfig()
	cfg.CacheBytes = 0 // unbounded
	out := Simulate(f.naResult, cfg)
	if len(out.Proxies) == 0 {
		t.Fatal("no proxies")
	}
	// Ordered by requests, descending.
	for i := 1; i < len(out.Proxies); i++ {
		if out.Proxies[i].Requests > out.Proxies[i-1].Requests {
			t.Fatal("proxies not sorted by requests")
		}
	}
	// No proxy can evict with unbounded capacity.
	for _, p := range out.Proxies {
		if p.Stats.Evictions != 0 {
			t.Fatalf("unbounded proxy evicted: %+v", p.Stats)
		}
	}
}

func TestURLFloorReducesRequests(t *testing.T) {
	// Use a thin slice of the log so plenty of URLs fall under the
	// 10-access floor (over the whole trace every URL clears it).
	f := setup(t)
	slice := f.naResult.Log.Slice(0, 1800)
	res := cluster.ClusterLog(slice, cluster.Simple{})
	with := Simulate(res, Config{TTL: 3600, PCV: true, MinURLAccesses: 10})
	without := Simulate(res, Config{TTL: 3600, PCV: true, MinURLAccesses: 0})
	if with.Requests >= without.Requests {
		t.Errorf("URL floor did not drop anything: %d vs %d", with.Requests, without.Requests)
	}
	if without.Requests != res.TotalRequests {
		t.Errorf("no-floor run must replay all %d requests, got %d",
			res.TotalRequests, without.Requests)
	}
}

func TestPCVBeatsPlainTTLOnServerContacts(t *testing.T) {
	f := setup(t)
	base := DefaultConfig()
	base.CacheBytes = 10 << 20
	pcv := Simulate(f.naResult, base)
	plain := base
	plain.PCV = false
	noPcv := Simulate(f.naResult, plain)
	sync := func(o Outcome) int {
		total := 0
		for _, p := range o.Proxies {
			total += p.Stats.SyncValidations
		}
		return total
	}
	if sync(pcv) >= sync(noPcv) {
		t.Errorf("PCV sync validations (%d) should undercut plain TTL (%d)",
			sync(pcv), sync(noPcv))
	}
	if pcv.HitRatio < noPcv.HitRatio-0.01 {
		t.Errorf("PCV hit ratio %.3f should not trail plain TTL %.3f",
			pcv.HitRatio, noPcv.HitRatio)
	}
}

func TestBypassedUnclusteredClients(t *testing.T) {
	f := setup(t)
	out := Simulate(f.naResult, DefaultConfig())
	if len(f.naResult.Unclustered) > 0 && out.Bypassed == 0 {
		t.Error("unclustered clients must bypass proxies")
	}
	if out.Bypassed > out.Requests/10 {
		t.Errorf("bypassed %d of %d — too many unclustered", out.Bypassed, out.Requests)
	}
}

func TestMeanLatencyImprovesWithCacheSize(t *testing.T) {
	f := setup(t)
	outs := Sweep(f.naResult, DefaultConfig(), []int64{100 << 10, 50 << 20})
	small := outs[0].MeanLatency(10, 120)
	big := outs[1].MeanLatency(10, 120)
	if big >= small {
		t.Errorf("bigger caches must lower latency: %g -> %g", small, big)
	}
	noCache := 130.0 // every request pays proxy+origin
	if big >= noCache {
		t.Errorf("cached latency %g must beat no-cache %g", big, noCache)
	}
	var empty Outcome
	if empty.MeanLatency(10, 120) != 0 {
		t.Error("empty outcome latency must be 0")
	}
}

func TestEmptySimulation(t *testing.T) {
	l := &weblog.Log{Name: "empty"}
	res := cluster.ClusterLog(l, cluster.Simple{})
	out := Simulate(res, DefaultConfig())
	if out.Requests != 0 || out.HitRatio != 0 || len(out.Proxies) != 0 {
		t.Fatalf("empty outcome = %+v", out)
	}
}

// MeanLatency estimates the mean client-perceived latency of the run
// under a two-level delay model: every proxied request costs a proxy
// round trip, and full fetches, synchronous validations and bypassed
// requests an origin round trip.
func (o Outcome) MeanLatency(proxyRTT, originRTT float64) float64 {
	if o.Requests == 0 {
		return 0
	}
	total := float64(o.Bypassed) * originRTT
	for _, p := range o.Proxies {
		total += float64(p.Stats.Requests)*proxyRTT +
			float64(p.Stats.FullFetches+p.Stats.SyncValidations)*originRTT
	}
	return total / float64(o.Requests)
}
