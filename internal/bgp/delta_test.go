package bgp

import (
	"math/rand"
	"testing"

	"github.com/netaware/netcluster/internal/netutil"
)

func TestIncrementalSeedMatchesCompile(t *testing.T) {
	m := NewMerged()
	m.Add(snap("ARIN", SourceNetworkDump, "12.0.0.0/8", "24.0.0.0/8", "10.1.0.0/16"))
	m.Add(snap("AADS", SourceBGP, "12.65.128.0/19", "10.0.0.0/8"))
	m.Add(snap("MAE", SourceBGP, "12.65.128.0/19", "24.48.2.0/23"))
	c := m.Compile()
	inc := NewIncremental(m).Compiled()

	if inc.Len() != c.Len() || inc.NumPrimary() != c.NumPrimary() || inc.NumSecondary() != c.NumSecondary() {
		t.Fatalf("sizes: incremental %d/%d/%d vs compiled %d/%d/%d",
			inc.Len(), inc.NumPrimary(), inc.NumSecondary(), c.Len(), c.NumPrimary(), c.NumSecondary())
	}
	for _, ip := range []string{
		"12.65.147.94", "12.1.2.3", "10.1.2.3", "24.48.3.87", "24.99.1.1", "99.99.99.99",
	} {
		a := netutil.MustParseAddr(ip)
		cm, cok := c.Lookup(a)
		im, iok := inc.Lookup(a)
		if cok != iok || cm != im {
			t.Errorf("Lookup(%s): compiled (%+v,%v) vs incremental (%+v,%v)", ip, cm, cok, im, iok)
		}
	}
}

func TestIncrementalAnnounceWithdraw(t *testing.T) {
	m := NewMerged()
	m.Add(snap("AADS", SourceBGP, "10.0.0.0/8"))
	inc := NewIncremental(m)
	addr := netutil.MustParseAddr("10.1.2.3")

	p16 := netutil.MustParsePrefix("10.1.0.0/16")
	c := inc.Apply(Delta{Source: "feed", Ops: []Op{
		{Kind: SourceBGP, Entry: Entry{Prefix: p16, ASPath: []uint32{7018}}},
	}})
	if m, ok := c.Lookup(addr); !ok || m.Prefix != p16 {
		t.Fatalf("after announce, Lookup = %+v %v, want %v", m, ok, p16)
	}
	if pv, ok := c.Provenance(p16); !ok || pv.OriginAS != 7018 || len(pv.Sources) != 1 || pv.Sources[0] != "feed" {
		t.Fatalf("Provenance = %+v %v", pv, ok)
	}
	if k, ok := c.KindOf(p16); !ok || k != SourceBGP {
		t.Fatalf("KindOf = %v %v", k, ok)
	}

	c = inc.Apply(Delta{Ops: []Op{
		{Withdraw: true, Kind: SourceBGP, Entry: Entry{Prefix: p16}},
	}})
	if m, ok := c.Lookup(addr); !ok || m.Prefix.String() != "10.0.0.0/8" {
		t.Fatalf("after withdraw, Lookup = %+v %v, want the /8", m, ok)
	}
	if _, ok := c.Provenance(p16); ok {
		t.Fatal("withdrawn prefix still has provenance")
	}

	// Withdrawing an absent prefix is a no-op, not an error.
	before := c.Len()
	c = inc.Apply(Delta{Ops: []Op{
		{Withdraw: true, Kind: SourceBGP, Entry: Entry{Prefix: netutil.MustParsePrefix("99.0.0.0/8")}},
	}})
	if c.Len() != before {
		t.Fatalf("withdraw of absent prefix changed Len: %d -> %d", before, c.Len())
	}
}

func TestIncrementalClassesIndependent(t *testing.T) {
	// The same prefix in both classes: withdrawing the BGP entry must
	// leave the network-dump entry matching, and vice versa.
	m := NewMerged()
	p := netutil.MustParsePrefix("24.0.0.0/8")
	m.Add(snap("AADS", SourceBGP, "24.0.0.0/8"))
	m.Add(snap("ARIN", SourceNetworkDump, "24.0.0.0/8"))
	inc := NewIncremental(m)
	addr := netutil.MustParseAddr("24.1.2.3")

	c := inc.Apply(Delta{Ops: []Op{{Withdraw: true, Kind: SourceBGP, Entry: Entry{Prefix: p}}}})
	if m, ok := c.Lookup(addr); !ok || m.Kind != SourceNetworkDump {
		t.Fatalf("after BGP withdraw, Lookup = %+v %v, want dump match", m, ok)
	}
	if k, ok := c.KindOf(p); !ok || k != SourceNetworkDump {
		t.Fatalf("KindOf = %v %v, want dump", k, ok)
	}
	c = inc.Apply(Delta{Ops: []Op{{Withdraw: true, Kind: SourceNetworkDump, Entry: Entry{Prefix: p}}}})
	if _, ok := c.Lookup(addr); ok {
		t.Fatal("both classes withdrawn but the address still matches")
	}
}

func TestIncrementalDefaultRouteNeverMatches(t *testing.T) {
	m := NewMerged()
	m.Add(snap("AADS", SourceBGP, "10.0.0.0/8"))
	inc := NewIncremental(m)
	def := netutil.MustParsePrefix("0.0.0.0/0")
	c := inc.Apply(Delta{Source: "feed", Ops: []Op{{Kind: SourceBGP, Entry: Entry{Prefix: def}}}})
	if _, ok := c.Lookup(netutil.MustParseAddr("99.99.99.99")); ok {
		t.Fatal("announced 0/0 clustered an otherwise uncovered address")
	}
	if _, ok := c.Provenance(def); !ok {
		t.Fatal("0/0 announce did not record provenance")
	}
}

func TestIncrementalProvenanceCopyOnWrite(t *testing.T) {
	// Re-announcing from a second feed must not mutate the Sources slice a
	// previously published generation could be reading.
	m := NewMerged()
	m.Add(snap("AADS", SourceBGP, "10.0.0.0/8"))
	inc := NewIncremental(m)
	p := netutil.MustParsePrefix("10.0.0.0/8")

	c1 := inc.Compiled()
	pv1, ok := c1.Provenance(p)
	if !ok || len(pv1.Sources) != 1 {
		t.Fatalf("seed provenance = %+v %v", pv1, ok)
	}
	sources1 := pv1.Sources

	c2 := inc.Apply(Delta{Source: "MAE", Ops: []Op{{Kind: SourceBGP, Entry: Entry{Prefix: p}}}})
	pv2, _ := c2.Provenance(p)
	if len(pv2.Sources) != 2 {
		t.Fatalf("after second feed, Sources = %v", pv2.Sources)
	}
	if len(sources1) != 1 || sources1[0] != "AADS" {
		t.Fatalf("old generation's Sources slice mutated: %v", sources1)
	}
}

// TestIncrementalEquivalentToRecompile drives random deltas against both
// the incremental compiler and a track-the-sets oracle, then checks the
// final incremental generation answers identically to a from-scratch
// Compile of the oracle's live sets. This is the ground truth behind the
// ≥5x delta-apply speedup claim: patching must be a pure optimization.
func TestIncrementalEquivalentToRecompile(t *testing.T) {
	rng := rand.New(rand.NewSource(61))

	// Universe: a few thousand prefixes per class, distinct ranges so the
	// two classes overlap but don't alias.
	var primary, secondary []netutil.Prefix
	for i := 0; i < 2000; i++ {
		bits := 9 + rng.Intn(16)
		addr := netutil.Addr(rng.Uint32()) & netutil.Addr(netutil.MaskOf(bits))
		primary = append(primary, netutil.PrefixFrom(addr, bits))
	}
	for i := 0; i < 400; i++ {
		bits := 8 + rng.Intn(9)
		addr := netutil.Addr(rng.Uint32()) & netutil.Addr(netutil.MaskOf(bits))
		secondary = append(secondary, netutil.PrefixFrom(addr, bits))
	}

	seed := NewMerged()
	seed.Add(&Snapshot{Name: "P0", Kind: SourceBGP, Entries: entriesOf(primary)})
	seed.Add(&Snapshot{Name: "S0", Kind: SourceNetworkDump, Entries: entriesOf(secondary)})
	inc := NewIncremental(seed)

	live := [2]map[netutil.Prefix]struct{}{
		make(map[netutil.Prefix]struct{}), make(map[netutil.Prefix]struct{}),
	}
	for _, p := range primary {
		live[0][p] = struct{}{}
	}
	for _, p := range secondary {
		live[1][p] = struct{}{}
	}

	var final *Compiled
	for batch := 0; batch < 100; batch++ {
		var d Delta
		d.Source = "churn"
		nOps := 10 + rng.Intn(30)
		for i := 0; i < nOps; i++ {
			class := 0
			universe := primary
			if rng.Intn(5) == 0 {
				class, universe = 1, secondary
			}
			kind := SourceBGP
			if class == 1 {
				kind = SourceNetworkDump
			}
			p := universe[rng.Intn(len(universe))]
			if _, isLive := live[class][p]; isLive && rng.Intn(2) == 0 {
				delete(live[class], p)
				d.Ops = append(d.Ops, Op{Withdraw: true, Kind: kind, Entry: Entry{Prefix: p}})
			} else {
				live[class][p] = struct{}{}
				d.Ops = append(d.Ops, Op{Kind: kind, Entry: Entry{Prefix: p}})
			}
		}
		final = inc.Apply(d)
	}

	// Reference: compile the oracle's final live sets from scratch.
	ref := NewMerged()
	ref.Add(&Snapshot{Name: "P", Kind: SourceBGP, Entries: entriesOfSet(live[0])})
	ref.Add(&Snapshot{Name: "S", Kind: SourceNetworkDump, Entries: entriesOfSet(live[1])})
	refC := ref.Compile()

	if final.NumPrimary() != refC.NumPrimary() || final.NumSecondary() != refC.NumSecondary() {
		t.Fatalf("sizes: incremental %d/%d vs recompile %d/%d",
			final.NumPrimary(), final.NumSecondary(), refC.NumPrimary(), refC.NumSecondary())
	}

	probes := make([]netutil.Addr, 0, 10000)
	for i := 0; i < 6000; i++ {
		probes = append(probes, netutil.Addr(rng.Uint32()))
	}
	for _, p := range primary[:2000] {
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

func TestIncrementalCompaction(t *testing.T) {
	m := NewMerged()
	m.Add(snap("AADS", SourceBGP, "10.0.0.0/8"))
	inc := NewIncremental(m)

	// Flap one batch of prefixes repeatedly; every withdraw after a freeze
	// strands arena rows, so compaction must eventually trigger and the
	// table keep answering correctly through it.
	var ps []netutil.Prefix
	for i := 0; i < 64; i++ {
		ps = append(ps, netutil.PrefixFrom(netutil.AddrFrom4(10, byte(i), 0, 0), 16))
	}
	var c *Compiled
	for round := 0; round < 20; round++ {
		var ann, wd Delta
		for _, p := range ps {
			ann.Ops = append(ann.Ops, Op{Kind: SourceBGP, Entry: Entry{Prefix: p}})
			wd.Ops = append(wd.Ops, Op{Withdraw: true, Kind: SourceBGP, Entry: Entry{Prefix: p}})
		}
		inc.Apply(ann)
		c = inc.Apply(wd)
	}
	if got := c.NumPrimary(); got != 1 {
		t.Fatalf("after flapping, NumPrimary = %d, want 1", got)
	}
	if m, ok := c.Lookup(netutil.MustParseAddr("10.5.1.1")); !ok || m.Prefix.String() != "10.0.0.0/8" {
		t.Fatalf("after flapping, Lookup = %+v %v", m, ok)
	}
	if inc.dyn.DeadEntries() > inc.dyn.Len() {
		t.Fatalf("compaction never ran: %d dead rows vs %d live", inc.dyn.DeadEntries(), inc.dyn.Len())
	}
}

func entriesOf(ps []netutil.Prefix) []Entry {
	out := make([]Entry, len(ps))
	for i, p := range ps {
		out[i] = Entry{Prefix: p}
	}
	return out
}

func entriesOfSet(set map[netutil.Prefix]struct{}) []Entry {
	out := make([]Entry, 0, len(set))
	for p := range set {
		out = append(out, Entry{Prefix: p})
	}
	return out
}

// TestIncrementalCountsFullRenders checks "bgp.delta.full_renders": it
// advances by one when an Apply's generation is a full render into the
// next arena and stays put when the generation is a path copy. A full
// render is the one generation already in Raw's canonical layout, so
// exporting it allocates nothing. "bgp.delta.spare_waits" and the
// "bgp.delta.spare_wait.ns" histogram must advance exactly as the
// table's own SpareWaits does.
func TestIncrementalCountsFullRenders(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	randPrefix := func() netutil.Prefix {
		bits := 9 + rng.Intn(16)
		return netutil.PrefixFrom(netutil.Addr(rng.Uint32())&netutil.Addr(netutil.MaskOf(bits)), bits)
	}
	var seed []string
	for i := 0; i < 50; i++ {
		seed = append(seed, randPrefix().String())
	}
	m := NewMerged()
	m.Add(snap("AADS", SourceBGP, seed...))
	inc := NewIncremental(m)
	inc.Compiled()
	switches, copies := 0, 0
	for i := 0; i < 400 && (switches < 2 || copies < 2); i++ {
		before := deltaRenders.Value()
		waits, waitCount, waitSum := spareWaits.Value(), spareWaitNS.Count(), spareWaitNS.Sum()
		n0, total0 := inc.dyn.SpareWaits()
		c := inc.Apply(Delta{Ops: []Op{{Kind: SourceBGP, Entry: Entry{Prefix: randPrefix()}}}})
		got := deltaRenders.Value() - before
		n1, total1 := inc.dyn.SpareWaits()
		if spareWaits.Value()-waits != uint64(n1-n0) || spareWaitNS.Count()-waitCount != uint64(n1-n0) ||
			spareWaitNS.Sum()-waitSum != int64(total1-total0) {
			t.Fatalf("apply %d: %d spare waits of %v published as %d waits, %d observations of %d ns in all",
				i, n1-n0, total1-total0, spareWaits.Value()-waits, spareWaitNS.Count()-waitCount, spareWaitNS.Sum()-waitSum)
		}
		if testing.AllocsPerRun(1, func() { c.frozen.Raw() }) == 0 {
			switches++
			if got != 1 {
				t.Fatalf("apply %d: a full render advanced bgp.delta.full_renders by %d, want 1", i, got)
			}
		} else {
			copies++
			if got != 0 {
				t.Fatalf("apply %d: a path copy advanced bgp.delta.full_renders by %d", i, got)
			}
		}
	}
	if switches < 2 || copies < 2 {
		t.Fatalf("%d full renders and %d path copies in 400 applies, want 2 of each", switches, copies)
	}
}
