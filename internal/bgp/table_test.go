package bgp

import (
	"testing"

	"github.com/netaware/netcluster/internal/netutil"
)

func snap(name string, kind SourceKind, prefixes ...string) *Snapshot {
	s := &Snapshot{Name: name, Kind: kind}
	for _, p := range prefixes {
		s.Entries = append(s.Entries, Entry{Prefix: netutil.MustParsePrefix(p)})
	}
	return s
}

func TestMergedLookupPrimaryBeatsSecondary(t *testing.T) {
	m := NewMerged()
	// Network dump has a big allocation block; BGP has the routed subnets.
	m.Add(snap("ARIN", SourceNetworkDump, "12.0.0.0/8"))
	m.Add(snap("AADS", SourceBGP, "12.65.128.0/19"))

	// Inside the BGP prefix: the BGP entry must win even though it is the
	// primary/secondary split, not pure longest-match across both.
	got, ok := m.Lookup(netutil.MustParseAddr("12.65.147.94"))
	if !ok || got.Prefix.String() != "12.65.128.0/19" || got.Kind != SourceBGP {
		t.Fatalf("Lookup = %+v, ok=%v", got, ok)
	}
	// Outside any BGP prefix but inside the dump block: secondary matches.
	got, ok = m.Lookup(netutil.MustParseAddr("12.1.2.3"))
	if !ok || got.Prefix.String() != "12.0.0.0/8" || got.Kind != SourceNetworkDump {
		t.Fatalf("Lookup fallback = %+v, ok=%v", got, ok)
	}
	// Outside everything: unclusterable.
	if _, ok := m.Lookup(netutil.MustParseAddr("99.99.99.99")); ok {
		t.Fatal("unclusterable address matched")
	}
}

func TestMergedPrimaryPreferredEvenWhenShorter(t *testing.T) {
	m := NewMerged()
	m.Add(snap("NLANR", SourceNetworkDump, "12.65.128.0/24"))
	m.Add(snap("AADS", SourceBGP, "12.65.128.0/19"))
	got, ok := m.Lookup(netutil.MustParseAddr("12.65.128.5"))
	if !ok || got.Kind != SourceBGP || got.Prefix.Bits() != 19 {
		t.Fatalf("BGP source must be preferred even with shorter prefix: %+v", got)
	}
}

func TestMergedDefaultRouteUnclusterable(t *testing.T) {
	m := NewMerged()
	m.Add(snap("AADS", SourceBGP, "0.0.0.0/0"))
	if _, ok := m.Lookup(netutil.MustParseAddr("5.6.7.8")); ok {
		t.Fatal("match against bare default route must be unclusterable")
	}
	m.Add(snap("AADS", SourceBGP, "5.0.0.0/8"))
	if _, ok := m.Lookup(netutil.MustParseAddr("5.6.7.8")); !ok {
		t.Fatal("real prefix must cluster")
	}
}

func TestMergedProvenance(t *testing.T) {
	m := NewMerged()
	m.Add(snap("AADS", SourceBGP, "10.0.0.0/8", "10.0.0.0/8")) // dup within snapshot
	m.Add(snap("MAE-EAST", SourceBGP, "10.0.0.0/8"))
	m.Add(snap("ARIN", SourceNetworkDump, "11.0.0.0/8"))

	prov, ok := m.Provenance(netutil.MustParsePrefix("10.0.0.0/8"))
	if !ok {
		t.Fatal("provenance missing")
	}
	if len(prov.Sources) != 2 || prov.Sources[0] != "AADS" || prov.Sources[1] != "MAE-EAST" {
		t.Fatalf("Sources = %v", prov.Sources)
	}
	if prov.Kind != SourceBGP {
		t.Fatalf("Kind = %v", prov.Kind)
	}
	prov, ok = m.Provenance(netutil.MustParsePrefix("11.0.0.0/8"))
	if !ok || prov.Kind != SourceNetworkDump {
		t.Fatalf("netdump provenance = %+v, ok=%v", prov, ok)
	}
	if _, ok := m.Provenance(netutil.MustParsePrefix("99.0.0.0/8")); ok {
		t.Fatal("absent prefix must have no provenance")
	}
	if m.NumPrimary() != 1 || m.NumSecondary() != 1 || m.Len() != 2 {
		t.Fatalf("counts: primary=%d secondary=%d len=%d", m.NumPrimary(), m.NumSecondary(), m.Len())
	}
}

func TestPrefixLengthHistogram(t *testing.T) {
	m := NewMerged()
	m.Add(snap("A", SourceBGP, "10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16", "1.2.3.0/24"))
	m.Add(snap("B", SourceNetworkDump, "11.0.0.0/8"))
	h := m.PrefixLengthHistogram()
	if h[8] != 2 || h[16] != 2 || h[24] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 5 {
		t.Fatalf("total = %d", total)
	}
}

func TestSnapshotPrefixLengthHistogram(t *testing.T) {
	s := snap("A", SourceBGP, "10.0.0.0/8", "10.0.0.0/8", "1.2.3.0/24")
	h := SnapshotPrefixLengthHistogram(s)
	if h[8] != 1 || h[24] != 1 {
		t.Fatalf("histogram = %v (duplicates must collapse)", h)
	}
}

func TestDynamicPrefixSet(t *testing.T) {
	day0 := snap("AADS", SourceBGP, "10.0.0.0/8", "11.0.0.0/8", "12.0.0.0/8")
	day1 := snap("AADS", SourceBGP, "10.0.0.0/8", "11.0.0.0/8", "13.0.0.0/8")
	day2 := snap("AADS", SourceBGP, "10.0.0.0/8", "11.0.0.0/8", "12.0.0.0/8", "13.0.0.0/8")
	dyn := DynamicPrefixSet([]*Snapshot{day0, day1, day2})
	// Intersection = {10/8, 11/8}; dynamic = {12/8, 13/8}.
	if len(dyn) != 2 {
		t.Fatalf("dynamic set = %v", dyn)
	}
	for _, p := range []string{"12.0.0.0/8", "13.0.0.0/8"} {
		if _, ok := dyn[netutil.MustParsePrefix(p)]; !ok {
			t.Errorf("dynamic set missing %s", p)
		}
	}
	if DynamicPrefixSet(nil) != nil {
		t.Error("empty series must yield nil")
	}
	if got := DynamicPrefixSet([]*Snapshot{day0}); len(got) != 0 {
		t.Errorf("single snapshot has empty dynamic set, got %v", got)
	}
}

func TestAggregate(t *testing.T) {
	in := []netutil.Prefix{
		netutil.MustParsePrefix("10.0.0.0/24"),
		netutil.MustParsePrefix("10.0.1.0/24"), // sibling of the above → /23
		netutil.MustParsePrefix("10.0.2.0/24"), // no sibling present
		netutil.MustParsePrefix("192.168.0.0/17"),
		netutil.MustParsePrefix("192.168.128.0/17"), // merges to /16
	}
	out := Aggregate(in)
	got := map[string]bool{}
	for _, p := range out {
		got[p.String()] = true
	}
	want := []string{"10.0.0.0/23", "10.0.2.0/24", "192.168.0.0/16"}
	if len(out) != len(want) {
		t.Fatalf("Aggregate = %v", out)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing %s in %v", w, out)
		}
	}
}

func TestAggregateCascades(t *testing.T) {
	// Four adjacent /24s must collapse all the way to a /22.
	in := []netutil.Prefix{
		netutil.MustParsePrefix("10.0.0.0/24"),
		netutil.MustParsePrefix("10.0.1.0/24"),
		netutil.MustParsePrefix("10.0.2.0/24"),
		netutil.MustParsePrefix("10.0.3.0/24"),
	}
	out := Aggregate(in)
	if len(out) != 1 || out[0].String() != "10.0.0.0/22" {
		t.Fatalf("Aggregate = %v, want single 10.0.0.0/22", out)
	}
}

func TestAggregateIdempotentAndCoversSameSpace(t *testing.T) {
	in := []netutil.Prefix{
		netutil.MustParsePrefix("10.0.0.0/24"),
		netutil.MustParsePrefix("10.0.1.0/24"),
		netutil.MustParsePrefix("172.16.0.0/12"),
	}
	once := Aggregate(in)
	twice := Aggregate(once)
	if len(once) != len(twice) {
		t.Fatalf("Aggregate not idempotent: %v vs %v", once, twice)
	}
	var before, after uint64
	for _, p := range in {
		before += p.NumAddrs()
	}
	for _, p := range once {
		after += p.NumAddrs()
	}
	if before != after {
		t.Fatalf("aggregation changed covered space: %d -> %d", before, after)
	}
}

// PrefixLengthHistogram counts unique prefixes per mask length across both
// classes; index i holds the count of /i prefixes. This is the data behind
// Figure 1(a).
func (m *Merged) PrefixLengthHistogram() [33]int {
	var h [33]int
	m.Walk(func(p netutil.Prefix, _ *Provenance) bool {
		h[p.Bits()]++
		return true
	})
	return h
}
