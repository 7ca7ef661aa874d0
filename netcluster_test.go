package netcluster_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	netcluster "github.com/netaware/netcluster"
	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/selfcorrect"
	"github.com/netaware/netcluster/internal/tracesim"
	"github.com/netaware/netcluster/internal/validate"
	"github.com/netaware/netcluster/internal/weblog"
)

// The facade tests exercise the full public pipeline exactly as a
// downstream user would: world → tables → log → cluster → validate →
// detect → simulate. Shared fixtures are built once.
type fixture struct {
	world *netcluster.World
	table *netcluster.Table
	log   *netcluster.Log
	na    *netcluster.Result
	si    *netcluster.Result
}

var (
	fixOnce sync.Once
	fix     fixture
)

func setup(t testing.TB) *fixture {
	fixOnce.Do(func() {
		wcfg := netcluster.DefaultWorldConfig()
		wcfg.NumASes = 500
		world, err := netcluster.GenerateWorld(wcfg)
		if err != nil {
			panic(err)
		}
		sim := netcluster.NewBGPSim(world, netcluster.DefaultBGPSimConfig())
		table := netcluster.CollectAndMerge(sim)
		l, err := netcluster.GenerateLog(world, netcluster.NaganoProfile(0.02))
		if err != nil {
			panic(err)
		}
		fix = fixture{
			world: world,
			table: table,
			log:   l,
			na:    netcluster.ClusterLog(l, netcluster.NetworkAware{Table: table}),
			si:    netcluster.ClusterLog(l, netcluster.Simple{}),
		}
	})
	return &fix
}

func TestPublicAddressing(t *testing.T) {
	a, err := netutil.ParseAddr("12.65.147.94")
	if err != nil {
		t.Fatal(err)
	}
	p, err := netutil.ParsePrefix("12.65.128.0/19")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(a) {
		t.Error("prefix must contain address")
	}
	if netutil.MustParseAddr("1.2.3.4").String() != "1.2.3.4" {
		t.Error("round trip failed")
	}
	if _, err := bgp.ParsePrefixEntry("12.65.128/255.255.224"); err != nil {
		t.Errorf("netmask notation: %v", err)
	}
}

func TestPublicSnapshotReading(t *testing.T) {
	in := "# name: AADS\n# kind: bgp\n# date: 12/7/1999\n12.65.128.0/19|AT&T|||\n18.0.0.0\n"
	snap, err := bgp.ReadSnapshot(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Name != "AADS" || len(snap.Entries) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	table := bgp.NewMerged()
	table.Add(snap)
	m, ok := table.Lookup(netutil.MustParseAddr("12.65.147.94"))
	if !ok || m.Prefix.String() != "12.65.128.0/19" {
		t.Fatalf("lookup = %+v, %v", m, ok)
	}
}

func TestPublicPipeline(t *testing.T) {
	f := setup(t)
	// The paper reports 99.9% on real logs; small synthetic worlds have
	// high variance (one dark allocation missed by both registries costs a
	// whole network of clients), so the bar here is slightly lower.
	if f.na.Coverage() < 0.985 {
		t.Errorf("network-aware coverage = %.4f, want ≥ 0.985", f.na.Coverage())
	}
	if len(f.si.Clusters) <= len(f.na.Clusters) {
		t.Errorf("simple must fragment: %d vs %d clusters",
			len(f.si.Clusters), len(f.na.Clusters))
	}
	th := f.na.ThresholdBusy(0.70)
	if len(th.Busy) == 0 || len(th.Busy) >= len(f.na.Clusters) {
		t.Errorf("thresholding kept %d of %d", len(th.Busy), len(f.na.Clusters))
	}
}

func TestPublicValidation(t *testing.T) {
	f := setup(t)
	resolver := netcluster.NewResolver(f.world)
	tracer := tracesim.New(f.world, f.world.VantageASes()[0])
	sampled := netcluster.SampleClusters(f.na.Clusters, 0.05, 7)
	ns := netcluster.ValidateNslookup(f.world, resolver, sampled)
	tr := validate.Traceroute(f.world, resolver, tracer, sampled)
	if ns.PassRate() < 0.85 || tr.PassRate() < 0.85 {
		t.Errorf("pass rates = %.2f / %.2f, want ≥ 0.85 (paper: >0.90)",
			ns.PassRate(), tr.PassRate())
	}
}

func TestPublicDetectionAndSimulation(t *testing.T) {
	f := setup(t)
	findings := netcluster.DetectRobots(f.si, netcluster.DefaultDetectConfig())
	clean := netcluster.Eliminate(f.log, netcluster.FindingClients(findings, netcluster.KindSpider))
	if len(clean.Requests) > len(f.log.Requests) {
		t.Fatal("elimination grew the log")
	}
	out := netcluster.Simulate(f.na, netcluster.DefaultSimConfig())
	if out.HitRatio <= 0 || out.HitRatio >= 1 {
		t.Errorf("hit ratio = %.3f", out.HitRatio)
	}
	sweep := netcluster.SimulateSweep(f.na, netcluster.DefaultSimConfig(),
		[]int64{100 << 10, 10 << 20})
	if sweep[1].HitRatio+0.02 < sweep[0].HitRatio {
		t.Errorf("bigger cache lowered hit ratio: %.3f -> %.3f",
			sweep[0].HitRatio, sweep[1].HitRatio)
	}
}

func TestPublicSelfCorrection(t *testing.T) {
	f := setup(t)
	corr := &selfcorrect.Corrector{
		Resolver:   netcluster.NewResolver(f.world),
		Tracer:     tracesim.New(f.world, f.world.VantageASes()[0]),
		SampleSize: 3,
	}
	out := corr.Correct(f.na)
	if out.Corrected.Coverage() < f.na.Coverage() {
		t.Errorf("self-correction lowered coverage: %.4f -> %.4f",
			f.na.Coverage(), out.Corrected.Coverage())
	}
}

func TestPublicLogRoundTrip(t *testing.T) {
	f := setup(t)
	small := f.log.Slice(0, 600) // first 10 minutes
	var buf bytes.Buffer
	if err := weblog.WriteCLF(&buf, small); err != nil {
		t.Fatal(err)
	}
	back, err := weblog.ReadCLF(&buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Requests) != len(small.Requests) {
		t.Fatalf("requests: %d -> %d", len(small.Requests), len(back.Requests))
	}
	res := netcluster.ClusterLog(back, netcluster.NetworkAware{Table: f.table})
	if len(res.Clusters) == 0 {
		t.Fatal("re-read log did not cluster")
	}
}

func TestPublicProfilesMatchPaperScale(t *testing.T) {
	n := netcluster.NaganoProfile(1.0)
	if n.NumRequests != 11665713 || n.NumClients != 59582 {
		t.Errorf("Nagano(1.0) = %+v", n)
	}
	for _, cfg := range []weblog.GenConfig{
		netcluster.ApacheProfile(0.01), weblog.EW3(0.01), netcluster.SunProfile(0.01),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}
