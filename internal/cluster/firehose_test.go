package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/inet"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/weblog"
)

// Firehose acceptance lane: the bounded accumulator against the exact
// one over the paper's workload profiles, an adversarial Zipf stream,
// and an env-scalable replay with a hard memory ceiling. `make
// firehose-smoke` runs the differential tests under -race and the
// ceiling test at 100M requests; plain `go test` runs everything at
// tier-1-friendly sizes.

// fhFixture: one synthetic world and its compiled routing table, shared
// by the firehose and bounded-stream tests. Unlike parFixture it also
// retains the world, which StreamGen needs.
var fhFixture struct {
	once  sync.Once
	world *inet.Internet
	na    NetworkAware
	err   error
}

func fhSetup(t *testing.T) (*inet.Internet, NetworkAware) {
	t.Helper()
	fhFixture.once.Do(func() {
		cfg := inet.DefaultConfig()
		cfg.NumASes = 250
		cfg.NumTierOne = 8
		w, err := inet.Generate(cfg)
		if err != nil {
			fhFixture.err = err
			return
		}
		sim := bgpsim.New(w, bgpsim.DefaultConfig())
		fhFixture.world = w
		fhFixture.na = NetworkAware{Table: bgpsim.Merge(sim.Collect())}.Compile()
	})
	if fhFixture.err != nil {
		t.Fatal(fhFixture.err)
	}
	return fhFixture.world, fhFixture.na
}

// exactCounts is the unbounded reference accumulator: one map entry per
// cluster, exact request and byte tallies.
type exactCounts struct {
	req map[netutil.Prefix]uint64
	byt map[netutil.Prefix]uint64
}

func newExactCounts() *exactCounts {
	return &exactCounts{req: make(map[netutil.Prefix]uint64), byt: make(map[netutil.Prefix]uint64)}
}

func (e *exactCounts) observe(p netutil.Prefix, size int64) {
	e.req[p]++
	e.byt[p] += uint64(size)
}

// top returns prefixes by decreasing request count, ties by prefix.
func (e *exactCounts) top() []netutil.Prefix {
	out := make([]netutil.Prefix, 0, len(e.req))
	for p := range e.req {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := e.req[out[i]], e.req[out[j]]; a != b {
			return a > b
		}
		return netutil.ComparePrefix(out[i], out[j]) < 0
	})
	return out
}

// requireDifferentialAgreement is the shared oracle: the bounded
// accumulator must (a) match totals, (b) provably pin the top
// guaranteedK, (c) report every Busy(k) entry byte-identical to the
// exact accumulator, (d) cover every cluster strictly busier than its
// k-th reported one, and (e) bound the tail error by ε·N plus the
// eviction threshold, with at most ~1% sketch-side violations (the CM
// guarantee is per-query probabilistic with confidence 1-δ).
func requireDifferentialAgreement(t *testing.T, acc *BoundedAccumulator, exact *exactCounts, unclustered uint64, k, guaranteedK int) {
	t.Helper()
	var reqTotal uint64
	for _, n := range exact.req {
		reqTotal += n
	}
	if acc.Requests() != reqTotal+unclustered || acc.Unclustered() != unclustered {
		t.Fatalf("totals: bounded (%d req, %d unclustered) vs exact (%d, %d)",
			acc.Requests(), acc.Unclustered(), reqTotal+unclustered, unclustered)
	}
	if !acc.GuaranteedTopK(guaranteedK) {
		t.Fatalf("top-%d not guaranteed (occupancy %d, evictions %d, tail bound %d)",
			guaranteedK, acc.Occupancy(), acc.Evictions(), acc.TailBound())
	}

	busy := acc.Busy(k)
	if len(busy) == 0 {
		t.Fatal("no busy clusters reported")
	}
	busySet := make(map[netutil.Prefix]bool, len(busy))
	for i, b := range busy {
		busySet[b.Prefix] = true
		wantReq, ok := exact.req[b.Prefix]
		if !ok {
			t.Fatalf("busy[%d] %v unknown to the exact accumulator", i, b.Prefix)
		}
		if !b.Exact || b.Requests != wantReq || b.Bytes != exact.byt[b.Prefix] {
			t.Fatalf("busy[%d] %v: bounded (%d req ±%d, %d B ±%d, exact=%v) vs exact (%d req, %d B)",
				i, b.Prefix, b.Requests, b.RequestsErr, b.Bytes, b.BytesErr, b.Exact,
				wantReq, exact.byt[b.Prefix])
		}
	}

	// Set agreement above the strict boundary: any cluster with more
	// requests than the k-th reported entry must be reported. (At the
	// boundary itself ties may legitimately order either way.)
	boundary := busy[len(busy)-1].Requests
	ordered := exact.top()
	for _, p := range ordered {
		if exact.req[p] <= boundary {
			break
		}
		if !busySet[p] {
			t.Fatalf("cluster %v (%d req) above the top-%d boundary %d but not reported busy",
				p, exact.req[p], k, boundary)
		}
	}

	// Tail: everything is an overestimate, and the slack stays within
	// ε·N (sketch) plus the eviction threshold (summary takeovers).
	allowed := acc.ErrorBound() + acc.TailBound()
	queries, violations := 0, 0
	for _, p := range ordered {
		if busySet[p] {
			continue
		}
		queries++
		est, _ := acc.EstimateRequests(p)
		if est < exact.req[p] {
			t.Fatalf("cluster %v underestimated: %d < true %d", p, est, exact.req[p])
		}
		if best, _ := acc.EstimateBytes(p); best < exact.byt[p] {
			t.Fatalf("cluster %v bytes underestimated: %d < true %d", p, best, exact.byt[p])
		}
		if est-exact.req[p] > allowed {
			violations++
		}
	}
	if max := 3 + queries/100; violations > max {
		t.Fatalf("%d of %d tail estimates overshoot beyond εN+threshold=%d (allowed %d)",
			violations, queries, allowed, max)
	}
}

// TestFirehoseDifferentialPaperProfiles: satellite 2's soak — the
// bounded accumulator against the exact one over all four paper
// workload profiles, fed from the streaming generator through the real
// compiled routing table.
func TestFirehoseDifferentialPaperProfiles(t *testing.T) {
	world, na := fhSetup(t)
	n := 120000
	if testing.Short() {
		n = 30000
	}
	for _, cfg := range weblog.Profiles(0.01) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			g, err := weblog.NewStreamGen(world, cfg)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := NewBoundedAccumulator(BoundedConfig{K: 20, Capacity: 2048, Epsilon: 1e-3})
			if err != nil {
				t.Fatal(err)
			}
			exact := newExactCounts()
			memo := make(map[netutil.Addr]netutil.Prefix)
			bad := make(map[netutil.Addr]bool)
			var unclustered uint64
			for i := 0; i < n; i++ {
				r := g.Next()
				p, seen := memo[r.Client]
				if !seen && !bad[r.Client] {
					var ok bool
					if p, ok = na.Cluster(r.Client); ok {
						memo[r.Client] = p
					} else {
						bad[r.Client] = true
					}
				}
				if bad[r.Client] {
					acc.ObserveUnclustered()
					unclustered++
					continue
				}
				acc.Observe(p, int64(r.Size))
				exact.observe(p, int64(r.Size))
			}
			requireDifferentialAgreement(t, acc, exact, unclustered, 20, 10)
		})
	}
}

// zipfPrefixStream deterministically maps Zipf ranks to distinct /24
// prefixes: an odd multiplier is injective mod 2^24, so rank identity
// is preserved while the address order is scrambled.
type zipfPrefixStream struct {
	rng *rand.Rand
	z   *rand.Zipf
}

func newZipfPrefixStream(seed int64, ranks uint64) *zipfPrefixStream {
	rng := rand.New(rand.NewSource(seed))
	return &zipfPrefixStream{rng: rng, z: rand.NewZipf(rng, 1.01, 1, ranks-1)}
}

func (s *zipfPrefixStream) next() (netutil.Addr, int64) {
	net := (s.z.Uint64() * 2654435761) & 0xFFFFFF
	addr := netutil.Addr(net<<8 | uint64(s.rng.Intn(256)))
	return addr, int64(200 + s.rng.Intn(1400))
}

// TestFirehoseDifferentialAdversarialZipf: the stress the paper
// profiles don't apply — a heavy 1.01-exponent Zipf over a quarter
// million distinct /24s, far more clusters than the monitored budget,
// constant eviction pressure on the summary.
func TestFirehoseDifferentialAdversarialZipf(t *testing.T) {
	n := 400000
	if testing.Short() {
		n = 80000
	}
	acc, err := NewBoundedAccumulator(BoundedConfig{K: 32, Capacity: 4096, Epsilon: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	exact := newExactCounts()
	src := newZipfPrefixStream(7, 1<<18)
	for i := 0; i < n; i++ {
		addr, size := src.next()
		p, _ := Simple{}.Cluster(addr)
		acc.Observe(p, size)
		exact.observe(p, size)
	}
	if acc.Evictions() == 0 {
		t.Fatal("adversarial stream caused no evictions — not adversarial")
	}
	requireDifferentialAgreement(t, acc, exact, 0, 32, 8)
}

// firehoseRequests resolves the replay length: FIREHOSE_REQUESTS from
// the smoke lane (100M), a tier-1-friendly default otherwise.
func firehoseRequests(t *testing.T) int {
	if v := os.Getenv("FIREHOSE_REQUESTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad FIREHOSE_REQUESTS %q: %v", v, err)
		}
		return n
	}
	if testing.Short() {
		return 200000
	}
	return 2000000
}

// firehoseArtifacts dumps the evidence a CI failure needs: the heap
// trace sampled during the replay and the flight-recorder tail.
func firehoseArtifacts(t *testing.T, trace []string) {
	dir := os.Getenv("FIREHOSE_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifacts: %v", err)
		return
	}
	var buf []byte
	for _, line := range trace {
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "rss-trace.txt"), buf, 0o644); err != nil {
		t.Logf("artifacts: %v", err)
	}
	if err := obsv.WriteTraceFile(filepath.Join(dir, "flight-recorder.json")); err != nil {
		t.Logf("artifacts: %v", err)
	}
	t.Logf("firehose artifacts written to %s", dir)
}

// TestFirehoseRSSCeiling is the acceptance run: replay
// FIREHOSE_REQUESTS (100M in the smoke lane) Zipf-distributed requests
// through the bounded pass and assert a hard memory ceiling — then
// replay the identical stream into the exact accumulator and require
// the top-K counts to match exactly. Memory is asserted three ways:
// the accumulator's declared footprint, live-heap growth over the
// replay, and (on Linux, informationally traced) process RSS.
func TestFirehoseRSSCeiling(t *testing.T) {
	const (
		k        = 32
		ceiling  = 48 << 20 // hard heap-growth ceiling, bytes
		universe = 1 << 20  // distinct /24s on offer
		seed     = 42
	)
	n := firehoseRequests(t)

	var trace []string
	sample := func(stage string, i int) uint64 {
		runtime.GC()
		heap := heapAllocBytes()
		line := fmt.Sprintf("%s\t%d\theap=%d", stage, i, heap)
		if rss, ok := rssBytes(); ok {
			line += fmt.Sprintf("\trss=%d", rss)
		}
		trace = append(trace, line)
		return heap
	}

	// Pass 1: bounded, with the ceiling enforced. The generator state is
	// O(1), so heap growth measured across the replay is attributable to
	// the accumulator (plus GC noise the ceiling comfortably absorbs).
	base := sample("baseline", 0)
	acc, err := NewBoundedAccumulator(BoundedConfig{K: k, Capacity: 8192, Epsilon: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if fp := acc.FootprintBytes(); fp >= ceiling {
		t.Fatalf("declared footprint %d already at the %d ceiling", fp, ceiling)
	}
	src := newZipfPrefixStream(seed, universe)
	step := n / 16
	if step == 0 {
		step = 1
	}
	peak := uint64(0)
	for i := 0; i < n; i++ {
		addr, size := src.next()
		p, _ := Simple{}.Cluster(addr)
		acc.Observe(p, size)
		if (i+1)%step == 0 {
			if h := sample("bounded", i+1); h > peak {
				peak = h
			}
		}
	}
	acc.PublishMetrics()
	final := sample("final", n)
	if final > peak {
		peak = final
	}
	if grew := peak - base; peak > base && grew > ceiling {
		firehoseArtifacts(t, trace)
		t.Fatalf("heap grew %d bytes over the %d-request replay, ceiling %d (footprint %d)",
			grew, n, ceiling, acc.FootprintBytes())
	}
	t.Logf("replayed %d requests: footprint %d B, heap %d→%d B, evictions %d, occupancy %d",
		n, acc.FootprintBytes(), base, final, acc.Evictions(), acc.Occupancy())

	// Pass 2: the exact reference over the identical stream (same seed,
	// same draw sequence), top-K compared entry for entry.
	exact := newExactCounts()
	src = newZipfPrefixStream(seed, universe)
	for i := 0; i < n; i++ {
		addr, size := src.next()
		p, _ := Simple{}.Cluster(addr)
		exact.observe(p, size)
	}
	defer func() {
		if t.Failed() {
			firehoseArtifacts(t, trace)
		}
	}()
	requireDifferentialAgreement(t, acc, exact, 0, k, 8)
}

// heapAllocBytes returns the live Go heap — portable, and the right
// signal for "did the accumulator grow", since mmap'd tables and OS
// page caching never inflate it.
func heapAllocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// rssBytes returns the process resident set from /proc/self/statm.
// ok is false where procfs is unavailable (non-Linux); callers fall
// back to heapAllocBytes.
func rssBytes() (uint64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * uint64(os.Getpagesize()), true
}
