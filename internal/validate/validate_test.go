package validate

import (
	"testing"

	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/dnssim"
	"github.com/netaware/netcluster/internal/inet"
	"github.com/netaware/netcluster/internal/tracesim"
	"github.com/netaware/netcluster/internal/weblog"
)

// pipeline builds world → views → log → network-aware clustering once for
// the whole test file.
type pipeline struct {
	world    *inet.Internet
	resolver *dnssim.Resolver
	tracer   *tracesim.Tracer
	naResult *cluster.Result
	siResult *cluster.Result
}

var cached *pipeline

func setup(t *testing.T) *pipeline {
	t.Helper()
	if cached != nil {
		return cached
	}
	wcfg := inet.DefaultConfig()
	wcfg.NumASes = 400
	wcfg.NumTierOne = 10
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
	cached = &pipeline{
		world:    world,
		resolver: dnssim.New(world),
		tracer:   tracesim.New(world, world.VantageASes()[0]),
		naResult: cluster.ClusterLog(log, cluster.NetworkAware{Table: merged}),
		siResult: cluster.ClusterLog(log, cluster.Simple{}),
	}
	return cached
}

func TestSampleDeterministicAndSized(t *testing.T) {
	p := setup(t)
	a := Sample(p.naResult.Clusters, 0.05, 42)
	b := Sample(p.naResult.Clusters, 0.05, 42)
	if len(a) != len(b) {
		t.Fatal("same seed, different sample sizes")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different samples")
		}
	}
	want := int(float64(len(p.naResult.Clusters)) * 0.05)
	if len(a) != want {
		t.Fatalf("sample size = %d, want %d", len(a), want)
	}
	if got := Sample(p.naResult.Clusters, 0.000001, 1); len(got) != 1 {
		t.Fatal("tiny fraction must still sample one cluster")
	}
	if got := Sample(nil, 0.5, 1); got != nil {
		t.Fatal("empty input must sample nothing")
	}
	if got := Sample(p.naResult.Clusters, 10.0, 1); len(got) != len(p.naResult.Clusters) {
		t.Fatal("fraction > 1 must clamp to all clusters")
	}
}

func TestNslookupNetworkAwarePassRate(t *testing.T) {
	p := setup(t)
	sampled := Sample(p.naResult.Clusters, 0.10, 7)
	rep := Nslookup(p.world, p.resolver, sampled)
	if rep.SampledClusters != len(sampled) {
		t.Fatalf("sampled = %d", rep.SampledClusters)
	}
	if rep.PassRate() < 0.85 {
		t.Errorf("network-aware nslookup pass rate = %.3f, paper reports >0.90", rep.PassRate())
	}
	// Roughly half the clients should resolve. The fraction is
	// client-weighted, so at this small scale a handful of big sampled
	// clusters dominate it and the band must be wide; the scale-0.25
	// experiment runs land at ~0.45-0.50.
	frac := float64(rep.ReachableClients) / float64(rep.SampledClients)
	if frac < 0.25 || frac > 0.85 {
		t.Errorf("nslookup reachable fraction = %.2f, paper reports ~0.50", frac)
	}
	if rep.MisidentifiedNonUS > rep.Misidentified {
		t.Error("non-US misidentifications cannot exceed total")
	}
}

func TestTracerouteValidation(t *testing.T) {
	p := setup(t)
	sampled := Sample(p.naResult.Clusters, 0.10, 7)
	rep := Traceroute(p.world, p.resolver, p.tracer, sampled)
	if rep.PassRate() < 0.80 {
		t.Errorf("traceroute pass rate = %.3f, paper reports ~0.90", rep.PassRate())
	}
	// Traceroute keys every sampled client.
	if rep.ReachableClients != rep.SampledClients {
		t.Errorf("traceroute must reach all clients: %d of %d", rep.ReachableClients, rep.SampledClients)
	}
}

func TestPrefixLen24ShareNearPaperValue(t *testing.T) {
	p := setup(t)
	sampled := Sample(p.naResult.Clusters, 0.25, 7)
	count, share := PrefixLen24Share(sampled)
	if count == 0 {
		t.Fatal("no /24 clusters sampled")
	}
	// Paper: 48.6% on Nagano; our worlds put /24 at 50-60% of networks.
	if share < 0.30 || share > 0.80 {
		t.Errorf("/24 share = %.2f, want mid-range", share)
	}
	// Hence the simple approach's assumption fails for the rest.
	if share > 0.95 {
		t.Error("a /24-only world would make the simple approach valid — wrong")
	}
}

func TestPrefixLenRange(t *testing.T) {
	p := setup(t)
	min, max := PrefixLenRange(p.naResult.Clusters)
	if min >= max {
		t.Fatalf("range [%d, %d] degenerate", min, max)
	}
	if min < 8 || max > 32 {
		t.Fatalf("range [%d, %d] outside sane bounds", min, max)
	}
	if a, b := PrefixLenRange(nil); a != 0 || b != 0 {
		t.Error("empty range must be zero")
	}
}

func TestGroundTruthCrossCheck(t *testing.T) {
	// The method verdicts should mostly agree with ground truth: clusters
	// that are truly correct rarely fail, and pass-rate should not wildly
	// exceed true correctness (the test can't see what DNS hides, so some
	// optimism is expected).
	p := setup(t)
	sampled := Sample(p.naResult.Clusters, 0.10, 13)
	rep := Nslookup(p.world, p.resolver, sampled)
	falseFail := 0
	for _, v := range rep.Verdicts {
		if v.TrulyCorrect && !v.Pass {
			falseFail++
		}
	}
	if frac := float64(falseFail) / float64(len(rep.Verdicts)); frac > 0.02 {
		t.Errorf("%.3f of truly-correct clusters failed nslookup; suffix test is broken", frac)
	}
}

func TestSimpleApproachSplitsTrueNetworks(t *testing.T) {
	// The simple approach's clusters are /24 slices; since true networks
	// are often shorter than /24, ground truth says many simple clusters
	// are fragments — they pass suffix tests (fragments are homogeneous)
	// but the cluster count balloons. Check the structural signature.
	p := setup(t)
	if len(p.siResult.Clusters) <= len(p.naResult.Clusters) {
		t.Errorf("simple approach should produce more clusters: %d vs %d",
			len(p.siResult.Clusters), len(p.naResult.Clusters))
	}
	// And simple clusters cap at 256 clients.
	for _, c := range p.siResult.ByClientsDesc()[:1] {
		if c.NumClients() > 256 {
			t.Errorf("simple cluster with %d clients is impossible", c.NumClients())
		}
	}
}

func TestSelectiveThresholdLooserThanStrict(t *testing.T) {
	p := setup(t)
	sampled := Sample(p.naResult.Clusters, 0.10, 7)
	strict := Nslookup(p.world, p.resolver, sampled)
	selective := Selective(p.world, p.resolver, sampled, 0.95)
	if selective.Misidentified > strict.Misidentified {
		t.Errorf("95%% threshold (%d fails) should not fail more than strict (%d)",
			selective.Misidentified, strict.Misidentified)
	}
	allOrNothing := Selective(p.world, p.resolver, sampled, 1.0)
	if allOrNothing.Misidentified != strict.Misidentified {
		t.Errorf("threshold 1.0 (%d) must equal strict (%d)",
			allOrNothing.Misidentified, strict.Misidentified)
	}
}

func TestReportPassRateEdgeCases(t *testing.T) {
	var empty Report
	if empty.PassRate() != 0 {
		t.Error("empty report pass rate must be 0")
	}
}

// SelectiveReport relaxes the strict all-clients test: a cluster passes
// when at least threshold of its keyed clients agree with the cluster's
// majority key. The paper sketches this as future work ("if 95% of the
// clients inside the cluster are correctly identified, we could consider
// this cluster to be correct").
func Selective(world *inet.Internet, resolver NameResolver, sampled []*cluster.Cluster, threshold float64) (rep Report) {
	rep = Report{Method: "selective-nslookup", SampledClusters: len(sampled)}
	for _, c := range sampled {
		v := ClusterVerdict{Cluster: c, Pass: true}
		counts := map[string]int{}
		keyed := 0
		for _, a := range clientsOf(c) {
			rep.SampledClients++
			s, ok := resolver.Suffix(a)
			if !ok {
				continue
			}
			rep.ReachableClients++
			v.Resolvable++
			counts[s]++
			keyed++
		}
		if keyed > 0 {
			best := 0
			for _, n := range counts {
				if n > best {
					best = n
				}
			}
			v.Pass = float64(best)/float64(keyed) >= threshold
		}
		groundTruth(world, c, &v)
		if !v.Pass {
			rep.Misidentified++
			if v.NonUS {
				rep.MisidentifiedNonUS++
			}
		}
		if !v.TrulyCorrect {
			rep.TrulyIncorrect++
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	return rep
}
