package netcluster_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	netcluster "github.com/netaware/netcluster"
	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/detect"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/node"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/radix"
	"github.com/netaware/netcluster/internal/selfcorrect"
	"github.com/netaware/netcluster/internal/sketch"
	"github.com/netaware/netcluster/internal/stats"
	"github.com/netaware/netcluster/internal/tracesim"
	"github.com/netaware/netcluster/internal/validate"
	"github.com/netaware/netcluster/internal/weblog"
	"github.com/netaware/netcluster/internal/websim"
)

// One benchmark per table/figure of the paper (see DESIGN.md's
// per-experiment index) plus ablations of the design choices and the core
// micro-operations. All benches reuse the shared fixture from
// netcluster_test.go, so `go test -bench=.` pays world generation once.

// ---- Core micro-benchmarks -------------------------------------------------

func BenchmarkLongestPrefixMatch(b *testing.B) {
	f := setup(b)
	clients := f.log.Clients()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.table.Lookup(clients[i%len(clients)])
	}
}

func BenchmarkClusterLogNetworkAware(b *testing.B) {
	f := setup(b)
	b.ReportMetric(float64(len(f.log.Requests)), "requests/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.ClusterLog(f.log, cluster.NetworkAware{Table: f.table})
	}
}

func BenchmarkClusterLogSimple(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.ClusterLog(f.log, cluster.Simple{})
	}
}

// BenchmarkLongestPrefixMatchCompiled is the compiled-table counterpart of
// BenchmarkLongestPrefixMatch: same client population, one flat-array walk
// instead of two tree walks. The ratio of the two is the headline number
// in BENCH_clustering.json.
func BenchmarkLongestPrefixMatchCompiled(b *testing.B) {
	f := setup(b)
	compiled := f.table.Compile()
	clients := f.log.Clients()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compiled.Lookup(clients[i%len(clients)])
	}
}

// BenchmarkLookupBatch is the batch lookup kernel over the same client
// population as BenchmarkLongestPrefixMatchCompiled, in 4096-address
// batches with a reused result buffer. b.N counts addresses, so ns/op
// here divided into the compiled single-probe bench's ns/op is the
// aggregate speedup the level-synchronous kernel buys (gated at >=3x in
// cmd/benchdiff).
func BenchmarkLookupBatch(b *testing.B) {
	f := setup(b)
	compiled := f.table.Compile()
	clients := f.log.Clients()
	const batchLen = 4096
	addrs := make([]netutil.Addr, batchLen)
	for i := range addrs {
		addrs[i] = clients[i%len(clients)]
	}
	dst := compiled.LookupBatch(addrs, nil)
	b.ReportMetric(batchLen, "addrs/batch")
	b.ResetTimer()
	for n := 0; n < b.N; n += batchLen {
		dst = compiled.LookupBatch(addrs, dst)
	}
	_ = dst
}

// BenchmarkSnapshotLoad measures opening the on-disk table snapshot —
// mmap fast path where the platform allows — against the fixture table,
// the cost a snapshot-booted clusterd pays instead of merge+compile.
func BenchmarkSnapshotLoad(b *testing.B) {
	f := setup(b)
	compiled := f.table.Compile()
	path := b.TempDir() + "/table.nct"
	if err := bgp.SaveTable(path, compiled); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(compiled.Len()), "prefixes/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tf, err := bgp.OpenTable(path)
		if err != nil {
			b.Fatal(err)
		}
		tf.Close()
	}
}

// BenchmarkTableCompile measures the one-time cost of building the
// compiled snapshot, the price paid to make every later lookup cheap.
func BenchmarkTableCompile(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.table.Compile()
	}
}

// ---- Parallel clustering engine (Apache profile, BENCH_clustering.json) ----

// The parallel benchmark runs on the Apache profile — the paper's largest
// cluster population — cached once alongside its CLF serialization.
var (
	perfOnce  sync.Once
	apacheLog *netcluster.Log
	apacheCLF []byte
)

func perfSetup(b testing.TB) *fixture {
	f := setup(b)
	perfOnce.Do(func() {
		l, err := netcluster.GenerateLog(f.world, netcluster.ApacheProfile(0.01))
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := weblog.WriteCLF(&buf, l); err != nil {
			panic(err)
		}
		apacheLog, apacheCLF = l, buf.Bytes()
	})
	return f
}

// BenchmarkClusterStreamParallel scales the one-pass engine: workers-1 is
// ClusterStream, more workers parse newline-aligned chunks in parallel.
func BenchmarkClusterStreamParallel(b *testing.B) {
	f := perfSetup(b)
	na := netcluster.NetworkAware{Table: f.table}.Compile()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(apacheCLF)))
			for i := 0; i < b.N; i++ {
				if _, err := cluster.ClusterStreamParallel(bytes.NewReader(apacheCLF), na, cluster.ParallelOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCLFParseStream measures the zero-allocation CLF ingestion fast
// path in isolation: parse + intern, no clustering.
func BenchmarkCLFParseStream(b *testing.B) {
	perfSetup(b)
	b.SetBytes(int64(len(apacheCLF)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := weblog.StreamCLF(bytes.NewReader(apacheCLF), func(weblog.StreamRecord) bool {
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteCLF measures log serialization (append-formatted lines,
// per-second timestamp cache).
func BenchmarkWriteCLF(b *testing.B) {
	perfSetup(b)
	b.SetBytes(int64(len(apacheCLF)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := weblog.WriteCLF(io.Discard, apacheLog); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Per-figure / per-table benchmarks -------------------------------------

// BenchmarkFig1PrefixHistogram regenerates Figure 1's prefix-length
// distribution from a vantage snapshot.
func BenchmarkFig1PrefixHistogram(b *testing.B) {
	f := setup(b)
	sim := netcluster.NewBGPSim(f.world, netcluster.DefaultBGPSimConfig())
	snap := sim.View(bgpsim.ViewConfig{Name: "MAE-WEST", Visibility: 0.38}, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bgp.SnapshotPrefixLengthHistogram(snap)
	}
}

// BenchmarkTab1MergeCollection regenerates Table 1's merged table from the
// standard snapshot collection.
func BenchmarkTab1MergeCollection(b *testing.B) {
	f := setup(b)
	sim := netcluster.NewBGPSim(f.world, netcluster.DefaultBGPSimConfig())
	coll := sim.Collect()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bgpsim.Merge(coll)
	}
}

// BenchmarkFig3ClusterCDF regenerates Figure 3's cumulative distributions.
func BenchmarkFig3ClusterCDF(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.CDF(cluster.ClientCounts(f.na.Clusters))
		stats.CDF(cluster.RequestCounts(f.na.Clusters))
	}
}

// BenchmarkFig4Distributions regenerates Figure 4's by-clients ordering
// with its three aligned metric series.
func BenchmarkFig4Distributions(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ordered := f.na.ByClientsDesc()
		cluster.ClientCounts(ordered)
		cluster.RequestCounts(ordered)
		cluster.URLCounts(ordered)
	}
}

// BenchmarkFig5Distributions regenerates Figure 5's by-requests ordering.
func BenchmarkFig5Distributions(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ordered := f.na.ByRequestsDesc()
		cluster.RequestCounts(ordered)
		cluster.ClientCounts(ordered)
		cluster.URLCounts(ordered)
	}
}

// BenchmarkFig6CrossLog clusters a second log profile, the unit of work
// behind Figure 6's cross-log comparison.
func BenchmarkFig6CrossLog(b *testing.B) {
	f := setup(b)
	l, err := netcluster.GenerateLog(f.world, weblog.EW3(0.005))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.ClusterLog(l, cluster.NetworkAware{Table: f.table})
	}
}

// BenchmarkTab3Validation regenerates Table 3: sample 1% of clusters and
// run both validation methods.
func BenchmarkTab3Validation(b *testing.B) {
	f := setup(b)
	sampled := validate.Sample(f.na.Clusters, 0.01, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolver := netcluster.NewResolver(f.world)
		tracer := tracesim.New(f.world, f.world.VantageASes()[0])
		validate.Nslookup(f.world, resolver, sampled)
		validate.Traceroute(f.world, resolver, tracer, sampled)
	}
}

// BenchmarkFig7Comparison clusters the same log under both approaches,
// the work behind Figure 7.
func BenchmarkFig7Comparison(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.ClusterLog(f.log, cluster.NetworkAware{Table: f.table})
		cluster.ClusterLog(f.log, cluster.Simple{})
	}
}

// BenchmarkTab4Dynamics regenerates Table 4's dynamic prefix sets over a
// 14-day series.
func BenchmarkTab4Dynamics(b *testing.B) {
	f := setup(b)
	sim := netcluster.NewBGPSim(f.world, netcluster.DefaultBGPSimConfig())
	vc := bgpsim.ViewConfig{Name: "AADS", Visibility: 0.25}
	var series []*bgp.Snapshot
	for _, day := range []int{0, 1, 4, 7, 14} {
		series = append(series, sim.View(vc, day))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bgp.DynamicPrefixSet(series)
	}
}

// BenchmarkTab5Thresholding regenerates Table 5's busy-cluster cut.
func BenchmarkTab5Thresholding(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.na.ThresholdBusy(0.70)
		f.si.ThresholdBusy(0.70)
	}
}

// BenchmarkFig9ArrivalHistograms bins arrival times at the resolution the
// Figure 9 histograms use.
func BenchmarkFig9ArrivalHistograms(b *testing.B) {
	f := setup(b)
	times := make([]uint32, len(f.log.Requests))
	for i := range f.log.Requests {
		times[i] = f.log.Requests[i].Time
	}
	horizon := uint32(f.log.Duration.Seconds())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Bin(times, horizon, 48)
	}
}

// BenchmarkFig10RequestSkew computes the intra-cluster request skew of
// every cluster (Figure 10 plots one; detection scans all).
func BenchmarkFig10RequestSkew(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range f.na.Clusters {
			detect.RequestSkew(c)
		}
	}
}

// BenchmarkDetect runs the full spider/proxy detector, the machinery
// behind Figures 9 and 10.
func BenchmarkDetect(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detect.Detect(f.na, detect.DefaultConfig())
	}
}

// BenchmarkFig11CachingSweep runs one point of Figure 11's cache-size
// sweep (10 MB proxies, TTL 1 h, PCV).
func BenchmarkFig11CachingSweep(b *testing.B) {
	f := setup(b)
	cfg := websim.DefaultConfig()
	cfg.CacheBytes = 10 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		websim.Simulate(f.na, cfg)
	}
}

// BenchmarkFig12ProxyPerf runs Figure 12's infinite-cache per-proxy
// simulation.
func BenchmarkFig12ProxyPerf(b *testing.B) {
	f := setup(b)
	cfg := websim.DefaultConfig()
	cfg.CacheBytes = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		websim.Simulate(f.na, cfg)
	}
}

// ---- Ablations (design choices called out in DESIGN.md §6) ----------------

// BenchmarkAblationLinearVsTrie compares the Patricia trie against a
// linear scan for longest-prefix matching.
func BenchmarkAblationLinearVsTrie(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var prefixes []netutil.Prefix
	tree := radix.New[int]()
	for i := 0; i < 10000; i++ {
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32()), 16+rng.Intn(9))
		prefixes = append(prefixes, p)
		tree.Insert(p, i)
	}
	probes := make([]netutil.Addr, 1024)
	for i := range probes {
		probes[i] = netutil.Addr(rng.Uint32())
	}
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree.Lookup(probes[i%len(probes)])
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := probes[i%len(probes)]
			best := -1
			for j, p := range prefixes {
				if p.Contains(a) && (best == -1 || p.Bits() > prefixes[best].Bits()) {
					best = j
				}
			}
		}
	})
}

// BenchmarkAblationTrieDesign compares the path-compressed binary trie
// against the stride-8 controlled-prefix-expansion trie (what hardware
// routers use), frozen into the flat arrays the compiled table serves
// from: the memory-for-speed trade on LPM.
func BenchmarkAblationTrieDesign(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	binary := radix.New[int]()
	multibit := radix.NewMultibit[int]()
	for i := 0; i < 10000; i++ {
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32()), 8+rng.Intn(25))
		binary.Insert(p, i)
		multibit.Insert(p, i)
	}
	probes := make([]netutil.Addr, 1024)
	for i := range probes {
		probes[i] = netutil.Addr(rng.Uint32())
	}
	b.Run("patricia", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			binary.Lookup(probes[i%len(probes)])
		}
	})
	frozen := multibit.Freeze()
	b.Run("multibit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			frozen.Lookup(probes[i%len(probes)])
		}
	})
}

// BenchmarkAblationSingleVsMergedTable measures clustering coverage cost
// with one vantage view versus the merged table.
func BenchmarkAblationSingleVsMergedTable(b *testing.B) {
	f := setup(b)
	sim := netcluster.NewBGPSim(f.world, netcluster.DefaultBGPSimConfig())
	single := bgp.NewMerged()
	single.Add(sim.View(bgpsim.ViewConfig{Name: "AADS", Visibility: 0.25}, 0))
	b.Run("single-view", func(b *testing.B) {
		var cov float64
		for i := 0; i < b.N; i++ {
			res := cluster.ClusterLog(f.log, cluster.NetworkAware{Table: single})
			cov = res.Coverage()
		}
		b.ReportMetric(cov*100, "coverage%")
	})
	b.Run("merged", func(b *testing.B) {
		var cov float64
		for i := 0; i < b.N; i++ {
			res := cluster.ClusterLog(f.log, cluster.NetworkAware{Table: f.table})
			cov = res.Coverage()
		}
		b.ReportMetric(cov*100, "coverage%")
	})
}

// BenchmarkAblationTraceroute compares classic and optimized traceroute
// probe costs over the same destinations.
func BenchmarkAblationTraceroute(b *testing.B) {
	f := setup(b)
	rng := rand.New(rand.NewSource(2))
	dsts := make([]netutil.Addr, 256)
	for i := range dsts {
		n := f.world.Networks[rng.Intn(len(f.world.Networks))]
		dsts[i] = n.RandomHost(rng)
	}
	b.Run("classic", func(b *testing.B) {
		tr := tracesim.New(f.world, f.world.VantageASes()[0])
		for i := 0; i < b.N; i++ {
			tr.Classic(dsts[i%len(dsts)])
		}
		b.ReportMetric(float64(tr.Probes)/float64(b.N), "probes/op")
	})
	b.Run("optimized", func(b *testing.B) {
		tr := tracesim.New(f.world, f.world.VantageASes()[0])
		for i := 0; i < b.N; i++ {
			tr.Optimized(dsts[i%len(dsts)])
		}
		b.ReportMetric(float64(tr.Probes)/float64(b.N), "probes/op")
	})
}

// BenchmarkAblationPCV compares piggyback cache validation against plain
// TTL expiry in the caching simulation.
func BenchmarkAblationPCV(b *testing.B) {
	f := setup(b)
	base := websim.DefaultConfig()
	base.CacheBytes = 10 << 20
	b.Run("pcv", func(b *testing.B) {
		var hr float64
		for i := 0; i < b.N; i++ {
			hr = websim.Simulate(f.na, base).HitRatio
		}
		b.ReportMetric(hr*100, "hit%")
	})
	b.Run("plain-ttl", func(b *testing.B) {
		cfg := base
		cfg.PCV = false
		var hr float64
		for i := 0; i < b.N; i++ {
			hr = websim.Simulate(f.na, cfg).HitRatio
		}
		b.ReportMetric(hr*100, "hit%")
	})
}

// BenchmarkSelfCorrection measures one correction pass.
func BenchmarkSelfCorrection(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corr := &selfcorrect.Corrector{
			Resolver:   netcluster.NewResolver(f.world),
			Tracer:     tracesim.New(f.world, f.world.VantageASes()[0]),
			SampleSize: 3,
		}
		corr.Correct(f.na)
	}
}

// BenchmarkLogGeneration measures synthetic workload generation.
func BenchmarkLogGeneration(b *testing.B) {
	f := setup(b)
	cfg := netcluster.NaganoProfile(0.005)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netcluster.GenerateLog(f.world, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldGeneration measures ground-truth Internet generation.
func BenchmarkWorldGeneration(b *testing.B) {
	cfg := netcluster.DefaultWorldConfig()
	cfg.NumASes = 500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netcluster.GenerateWorld(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Churn / incremental recompilation (BENCH_clustering.json) -------------

// The acceptance bar for the incremental delta compiler: applying a 1%
// churn batch must beat recompiling the table from scratch by a wide
// margin (the clusterd service applies deltas on a ticker while serving
// lookups), and lookup latency through the RCU swap must be
// indistinguishable from a quiet table.
var (
	churnOnce   sync.Once
	churnMerged *bgp.Merged
	churnFwd    bgp.Delta // withdraw 1% of the BGP universe
	churnRev    bgp.Delta // re-announce the same entries
	churnAddrs  []netutil.Addr
)

func churnSetup(b testing.TB) {
	f := setup(b)
	churnOnce.Do(func() {
		sim := bgpsim.New(f.world, bgpsim.DefaultConfig())
		coll := sim.Collect()
		churnMerged = bgpsim.Merge(coll)
		// Deduplicated union of every vantage's entries, mirroring the
		// clusterd churn universe.
		seen := make(map[netutil.Prefix]bool)
		var entries []bgp.Entry
		for _, v := range coll.Views {
			for _, e := range v.Entries {
				if !seen[e.Prefix] {
					seen[e.Prefix] = true
					entries = append(entries, e)
				}
			}
		}
		// Every 100th prefix: a 1% batch spread across the whole table.
		n := len(entries) / 100
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			e := entries[i*100]
			churnRev.Ops = append(churnRev.Ops, bgp.Op{Kind: bgp.SourceBGP, Entry: e})
			churnFwd.Ops = append(churnFwd.Ops, bgp.Op{
				Withdraw: true, Kind: bgp.SourceBGP, Entry: bgp.Entry{Prefix: e.Prefix},
			})
		}
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 4096; i++ {
			churnAddrs = append(churnAddrs, netutil.AddrFrom4(
				byte(rng.Intn(224)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))))
		}
	})
}

// BenchmarkChurnDeltaApply measures one incremental generation swap for a
// 1% churn batch. Alternating the batch with its inverse keeps the table
// in a two-state steady cycle, so every iteration does comparable work.
func BenchmarkChurnDeltaApply(b *testing.B) {
	churnSetup(b)
	inc := bgp.NewIncremental(churnMerged)
	b.ReportMetric(float64(len(churnFwd.Ops)), "ops/delta")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			inc.Apply(churnFwd)
		} else {
			inc.Apply(churnRev)
		}
	}
}

// BenchmarkChurnFullRecompile is the baseline the delta compiler replaces:
// rebuilding the Compiled table from the merged tries on every change.
func BenchmarkChurnFullRecompile(b *testing.B) {
	churnSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churnMerged.Compile()
	}
}

// BenchmarkChurnLookup compares lookup latency through a churn.Table at
// rest against one swapping generations ~1000x/sec underneath the
// readers. The p99-ns metric is the invariant: RCU publication must not
// add tail latency. (Per-op time includes one time.Now/Since pair of
// timer overhead; it is identical in both modes.)
func BenchmarkChurnLookup(b *testing.B) {
	churnSetup(b)
	for _, mode := range []string{"steady", "swapping"} {
		b.Run(mode, func(b *testing.B) {
			tb := churn.New(churnMerged)
			stop := make(chan struct{})
			done := make(chan struct{})
			if mode == "swapping" {
				go func() {
					defer close(done)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if i%2 == 0 {
							tb.Apply(churnFwd)
						} else {
							tb.Apply(churnRev)
						}
						time.Sleep(time.Millisecond)
					}
				}()
			} else {
				close(done)
			}
			lat := make([]int64, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				tb.Lookup(churnAddrs[i%len(churnAddrs)])
				lat = append(lat, int64(time.Since(t0)))
			}
			b.StopTimer()
			close(stop)
			<-done
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
		})
	}
}

// ---- Firehose: bounded busy-cluster accounting (BENCH_clustering.json) -----

// A Zipf-distributed /24 population far larger than the summary
// capacity, so the bounded path exercises its steady state: heavy
// hitters monitored, the rest taking over the minimum counter. Shared by
// both firehose benchmarks.
var (
	firehoseOnce     sync.Once
	firehoseKeys     []uint64
	firehosePrefixes []netutil.Prefix
)

func firehoseBenchSetup() {
	firehoseOnce.Do(func() {
		rng := rand.New(rand.NewSource(11))
		zipf := rand.NewZipf(rng, 1.07, 1, 1<<20-1)
		firehoseKeys = make([]uint64, 1<<16)
		firehosePrefixes = make([]netutil.Prefix, 1<<16)
		for i := range firehoseKeys {
			rank := zipf.Uint64()
			firehoseKeys[i] = rank
			// Injective rank -> /24 spread over the address space.
			base := netutil.Addr((rank * 2654435761 & 0xFFFFFF) << 8)
			firehosePrefixes[i] = netutil.PrefixFrom(base, 24)
		}
	})
}

// BenchmarkSketchUpdate prices one conservative count-min update at
// ε = 1e-4, δ = 0.01, the dimensions the repo benchmark's sketch.update
// stage times. Gated in
// cmd/benchdiff with allocs/op == 0: the whole point of the sketch is
// that the hot path never touches the allocator.
func BenchmarkSketchUpdate(b *testing.B) {
	firehoseBenchSetup()
	cm, err := sketch.NewCountMinError(1e-4, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.AddConservative(firehoseKeys[i%len(firehoseKeys)], 1)
	}
}

// BenchmarkBoundedStream prices one address through the bounded
// accumulator in eviction steady state (1M-cluster universe, 4096
// monitored counters): summary hit or takeover, whichever the Zipf
// draw lands on. Also benchdiff-gated at allocs/op == 0 — a
// firehose consumer must not generate garbage per request.
func BenchmarkBoundedStream(b *testing.B) {
	firehoseBenchSetup()
	acc, err := cluster.NewBoundedAccumulator(cluster.BoundedConfig{
		K: 32, Capacity: 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Pre-fill past capacity so evictions happen from iteration one.
	for _, p := range firehosePrefixes {
		acc.Observe(p, 200)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Observe(firehosePrefixes[i%len(firehosePrefixes)], 200)
	}
}

// ---- Sharded cluster benchmarks (internal/shard) ---------------------------

var (
	shardOnce      sync.Once
	shardCluster   *node.Cluster
	shardErr       error
	shardMixed     []netutil.Addr // spread across all three shards
	shardFirstOnly []netutil.Addr // all owned by shard 0
)

// shardSetup stands up one in-process 3-shard cluster (compiler feed,
// three follower nodes, router — real HTTP on loopback) shared by every
// router/feed benchmark, plus two probe sets: one spread across the
// shard map and one confined to shard 0.
func shardSetup(b testing.TB) {
	shardOnce.Do(func() {
		shardCluster, shardErr = node.NewCluster(node.ClusterConfig{Shards: 3})
		if shardErr != nil {
			return
		}
		rng := rand.New(rand.NewSource(99))
		firstMax := uint32(shardCluster.Map.Shards[0].LastBlock) + 1
		for i := 0; i < 4096; i++ {
			shardMixed = append(shardMixed, netutil.Addr(rng.Uint32()))
			shardFirstOnly = append(shardFirstOnly, netutil.Addr(
				rng.Uint32()%(firstMax<<24)))
		}
	})
	if shardErr != nil {
		b.Fatalf("shard cluster: %v", shardErr)
	}
}

// routerBatch is the size of the routed batches the router benchmarks
// (and the overhead guard's fan-out row) send.
const routerBatch = 512

// routeBatches sends n routed batches of addrs through the shared
// cluster's router, failing b on any degraded answer.
func routeBatches(b *testing.B, addrs []netutil.Addr, n int) {
	for i := 0; i < n; i++ {
		resp := shardCluster.Router.BatchCtx(context.Background(), addrs)
		if len(resp.Degradation) != 0 {
			b.Fatalf("degraded: %v", resp.Degradation)
		}
	}
}

// BenchmarkRouterFanout measures a routed batch spread across all three
// shards: group, three concurrent shard POSTs, merge back into input
// order. The ns/addr metric is the router's per-address overhead.
func BenchmarkRouterFanout(b *testing.B) {
	shardSetup(b)
	b.ResetTimer()
	routeBatches(b, shardMixed[:routerBatch], b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*routerBatch), "ns/addr")
}

// BenchmarkRouterSingleShard is the same batch size confined to one
// shard — the no-parallelism baseline. benchdiff's -min-shard-scaling
// gate is the ratio of this bench's ns/op to BenchmarkRouterFanout's:
// fanning out must not cost more than the floor says.
func BenchmarkRouterSingleShard(b *testing.B) {
	shardSetup(b)
	b.ResetTimer()
	routeBatches(b, shardFirstOnly[:routerBatch], b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*routerBatch), "ns/addr")
}

// BenchmarkTraceHeaderInject prices stamping the X-Netcluster-Trace
// header onto an outbound fan-out request — the per-shard cost the
// router pays on every traced batch, gated by benchdiff.
func BenchmarkTraceHeaderInject(b *testing.B) {
	ctx, span := obsv.StartTraceSpan(context.Background(), "bench.inject")
	defer span.End()
	h := make(http.Header, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obsv.HTTPInject(ctx, h)
	}
}

// BenchmarkTraceHeaderExtract prices parsing an inbound trace header
// into a span context — what every shard node pays per traced request.
func BenchmarkTraceHeaderExtract(b *testing.B) {
	ctx, span := obsv.StartTraceSpan(context.Background(), "bench.extract")
	span.End()
	h := make(http.Header, 4)
	obsv.HTTPInject(ctx, h)
	base := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obsv.HTTPExtract(base, h)
	}
}

// BenchmarkDeltaBroadcast measures one full delta distribution round:
// the compiler sequences and applies a churn delta, and every follower
// fetches and applies it over HTTP until the whole cluster stands at
// the new generation.
func BenchmarkDeltaBroadcast(b *testing.B) {
	shardSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := shardCluster.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
