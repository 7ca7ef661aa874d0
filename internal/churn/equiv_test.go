package churn

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
)

// TestIncrementalEquivalentToRecompileUnderReaders is the PR's load-
// bearing equivalence proof: a churn table absorbing ~100 random deltas
// must end up answering exactly like a table compiled from scratch over
// the final live prefix sets — while reader goroutines hammer Load() and
// Lookup() through every swap. Run under -race this also proves the
// RCU publication discipline: readers see only fully-built generations,
// and generations they hold stay internally consistent after any number
// of later swaps.
func TestIncrementalEquivalentToRecompileUnderReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(1999))

	// Universe shaped like the paper's merged tables: a few thousand BGP
	// prefixes over a few hundred coarser registry blocks.
	var primary, secondary []netutil.Prefix
	seen := make(map[netutil.Prefix]struct{})
	for len(primary) < 3000 {
		bits := 10 + rng.Intn(15)
		addr := netutil.Addr(rng.Uint32()) & netutil.Addr(netutil.MaskOf(bits))
		p := netutil.PrefixFrom(addr, bits)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		primary = append(primary, p)
	}
	for len(secondary) < 500 {
		bits := 8 + rng.Intn(8)
		addr := netutil.Addr(rng.Uint32()) & netutil.Addr(netutil.MaskOf(bits))
		p := netutil.PrefixFrom(addr, bits)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		secondary = append(secondary, p)
	}

	toEntries := func(ps []netutil.Prefix) []bgp.Entry {
		out := make([]bgp.Entry, len(ps))
		for i, p := range ps {
			out[i] = bgp.Entry{Prefix: p}
		}
		return out
	}
	seed := bgp.NewMerged()
	seed.Add(&bgp.Snapshot{Name: "P0", Kind: bgp.SourceBGP, Entries: toEntries(primary)})
	seed.Add(&bgp.Snapshot{Name: "S0", Kind: bgp.SourceNetworkDump, Entries: toEntries(secondary)})
	tb := New(seed)

	// Readers: hammer the hot path through every swap. Each reader pins a
	// generation now and then and re-checks a previously seen answer —
	// immutability of published generations, under the race detector.
	stop := make(chan struct{})
	var lookups atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var probe [1]netutil.Addr
			var batch []bgp.Match
			for {
				select {
				case <-stop:
					return
				default:
				}
				pinned := tb.Load()
				addr := netutil.Addr(rng.Uint32())
				m1, ok1 := pinned.Lookup(addr)
				for i := 0; i < 100; i++ {
					tb.Lookup(netutil.Addr(rng.Uint32()))
				}
				// The pinned generation must repeat its own answer exactly,
				// regardless of how many swaps just happened.
				m2, ok2 := pinned.Lookup(addr)
				if ok1 != ok2 || m1 != m2 {
					t.Errorf("pinned generation changed its answer for %v: (%+v,%v) then (%+v,%v)",
						addr, m1, ok1, m2, ok2)
					return
				}
				// The batch kernel reads the same shared block arena the
				// writer keeps appending to.
				probe[0] = addr
				if batch = pinned.LookupBatch(probe[:], batch); batch[0] != m1 {
					t.Errorf("pinned generation's batch answer for %v is %+v, Lookup %+v", addr, batch[0], m1)
					return
				}
				lookups.Add(103)
			}
		}(int64(1000 + r))
	}

	// Writer: ~100 deltas of ~1% table churn, tracked against live sets.
	live := [2]map[netutil.Prefix]struct{}{
		make(map[netutil.Prefix]struct{}), make(map[netutil.Prefix]struct{}),
	}
	for _, p := range primary {
		live[0][p] = struct{}{}
	}
	for _, p := range secondary {
		live[1][p] = struct{}{}
	}
	for batch := 0; batch < 100; batch++ {
		var d bgp.Delta
		d.Source = "equiv"
		nOps := 20 + rng.Intn(20) // ~1% of 3500
		for i := 0; i < nOps; i++ {
			class, universe, kind := 0, primary, bgp.SourceBGP
			if rng.Intn(7) == 0 {
				class, universe, kind = 1, secondary, bgp.SourceNetworkDump
			}
			p := universe[rng.Intn(len(universe))]
			if _, isLive := live[class][p]; isLive && rng.Intn(2) == 0 {
				delete(live[class], p)
				d.Ops = append(d.Ops, bgp.Op{Withdraw: true, Kind: kind, Entry: bgp.Entry{Prefix: p}})
			} else {
				live[class][p] = struct{}{}
				d.Ops = append(d.Ops, bgp.Op{Kind: kind, Entry: bgp.Entry{Prefix: p}})
			}
		}
		tb.Apply(d)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if tb.Generation() != 100 {
		t.Fatalf("generation = %d, want 100", tb.Generation())
	}
	t.Logf("readers completed %d lookups across 100 swaps", lookups.Load())

	// Reference: compile the tracked live sets from scratch.
	setEntries := func(set map[netutil.Prefix]struct{}) []bgp.Entry {
		out := make([]bgp.Entry, 0, len(set))
		for p := range set {
			out = append(out, bgp.Entry{Prefix: p})
		}
		return out
	}
	ref := bgp.NewMerged()
	ref.Add(&bgp.Snapshot{Name: "P", Kind: bgp.SourceBGP, Entries: setEntries(live[0])})
	ref.Add(&bgp.Snapshot{Name: "S", Kind: bgp.SourceNetworkDump, Entries: setEntries(live[1])})
	refC := ref.Compile()

	final := tb.Load()
	if final.NumPrimary() != refC.NumPrimary() || final.NumSecondary() != refC.NumSecondary() {
		t.Fatalf("sizes: incremental %d/%d vs recompile %d/%d",
			final.NumPrimary(), final.NumSecondary(), refC.NumPrimary(), refC.NumSecondary())
	}

	// 10k-address probe set: uniform random plus every live boundary.
	probes := make([]netutil.Addr, 0, 10000+2*len(seen))
	for i := 0; i < 10000; i++ {
		probes = append(probes, netutil.Addr(rng.Uint32()))
	}
	for p := range seen {
		probes = append(probes, p.First(), p.Last())
	}
	for _, addr := range probes {
		im, iok := final.Lookup(addr)
		rm, rok := refC.Lookup(addr)
		if iok != rok || im != rm {
			t.Fatalf("Lookup(%v): incremental (%+v,%v) vs recompile (%+v,%v)", addr, im, iok, rm, rok)
		}
	}
}
