package bgp

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/netaware/netcluster/internal/netutil"
)

func TestCompiledMatchesMergedTargeted(t *testing.T) {
	m := NewMerged()
	m.Add(snap("ARIN", SourceNetworkDump, "12.0.0.0/8", "24.0.0.0/8", "10.1.0.0/16"))
	m.Add(snap("AADS", SourceBGP, "12.65.128.0/19", "10.0.0.0/8"))
	m.Add(snap("MAE", SourceBGP, "12.65.128.0/19", "24.48.2.0/23"))
	c := m.Compile()

	for _, ip := range []string{
		"12.65.147.94", // BGP /19
		"12.1.2.3",     // dump /8 fallback
		"10.1.2.3",     // primary /8 beats longer secondary /16
		"24.48.3.87",   // BGP /23 inside dump /8
		"24.99.1.1",    // dump /8
		"99.99.99.99",  // unclusterable
	} {
		a := netutil.MustParseAddr(ip)
		mm, mok := m.Lookup(a)
		cm, cok := c.Lookup(a)
		if mok != cok || mm != cm {
			t.Errorf("Lookup(%s): merged (%+v,%v) vs compiled (%+v,%v)", ip, mm, mok, cm, cok)
		}
	}
	if c.Len() != m.Len() || c.NumPrimary() != m.NumPrimary() || c.NumSecondary() != m.NumSecondary() {
		t.Errorf("sizes: compiled %d/%d/%d vs merged %d/%d/%d",
			c.Len(), c.NumPrimary(), c.NumSecondary(), m.Len(), m.NumPrimary(), m.NumSecondary())
	}
	if c.NumNodes() == 0 {
		t.Error("NumNodes = 0")
	}
}

func TestCompiledDefaultRouteUnclusterable(t *testing.T) {
	// 0/0 in either class covers every address but must never cluster one,
	// in both the tree walk and the compiled walk.
	m := NewMerged()
	m.Add(snap("B", SourceBGP, "0.0.0.0/0", "10.0.0.0/8"))
	m.Add(snap("R", SourceNetworkDump, "0.0.0.0/0", "20.0.0.0/8"))
	c := m.Compile()
	for _, tc := range []struct {
		ip   string
		want bool
	}{
		{"10.1.2.3", true},
		{"20.1.2.3", true},
		{"99.99.99.99", false}, // only 0/0 covers it
	} {
		a := netutil.MustParseAddr(tc.ip)
		mm, mok := m.Lookup(a)
		cm, cok := c.Lookup(a)
		if mok != cok || mm != cm {
			t.Errorf("Lookup(%s): merged (%+v,%v) vs compiled (%+v,%v)", tc.ip, mm, mok, cm, cok)
		}
		if cok != tc.want {
			t.Errorf("Lookup(%s) ok = %v, want %v", tc.ip, cok, tc.want)
		}
	}
	// The default route still carries provenance for reporting.
	if _, ok := c.Provenance(netutil.MustParsePrefix("0.0.0.0/0")); !ok {
		t.Error("0/0 provenance lost at compile time")
	}
}

// TestCompiledMatchesMergedRandom cross-checks the compiled table against
// the two-tree reference over randomized overlapping classes.
func TestCompiledMatchesMergedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := NewMerged()
	primary := &Snapshot{Name: "P", Kind: SourceBGP}
	secondary := &Snapshot{Name: "S", Kind: SourceNetworkDump}
	for i := 0; i < 3000; i++ {
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32()), rng.Intn(33))
		primary.Entries = append(primary.Entries, Entry{Prefix: p})
		if rng.Intn(4) == 0 {
			// Some prefixes appear in both classes.
			secondary.Entries = append(secondary.Entries, Entry{Prefix: p})
		}
	}
	for i := 0; i < 3000; i++ {
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32()), rng.Intn(33))
		secondary.Entries = append(secondary.Entries, Entry{Prefix: p})
	}
	m.Add(primary)
	m.Add(secondary)
	c := m.Compile()
	for i := 0; i < 30000; i++ {
		a := netutil.Addr(rng.Uint32())
		mm, mok := m.Lookup(a)
		cm, cok := c.Lookup(a)
		if mok != cok || mm != cm {
			t.Fatalf("Lookup(%v): merged (%+v,%v) vs compiled (%+v,%v)", a, mm, mok, cm, cok)
		}
	}
	// Provenance and kind resolve identically for every compiled prefix.
	m.Walk(func(p netutil.Prefix, _ *Provenance) bool {
		want, wok := m.Provenance(p)
		got, gok := c.Provenance(p)
		if wok != gok || want != got {
			t.Fatalf("Provenance(%v): merged (%p,%v) vs compiled (%p,%v)", p, want, wok, got, gok)
		}
		return true
	})
}

func TestCompiledKindOfShadowing(t *testing.T) {
	m := NewMerged()
	m.Add(snap("B", SourceBGP, "10.0.0.0/8"))
	m.Add(snap("R", SourceNetworkDump, "10.0.0.0/8", "20.0.0.0/8"))
	c := m.Compile()
	if k, ok := c.KindOf(netutil.MustParsePrefix("10.0.0.0/8")); !ok || k != SourceBGP {
		t.Errorf("KindOf shared prefix = %v ok=%v, want BGP", k, ok)
	}
	if k, ok := c.KindOf(netutil.MustParsePrefix("20.0.0.0/8")); !ok || k != SourceNetworkDump {
		t.Errorf("KindOf dump prefix = %v ok=%v, want dump", k, ok)
	}
	if _, ok := c.KindOf(netutil.MustParsePrefix("30.0.0.0/8")); ok {
		t.Error("KindOf unknown prefix must miss")
	}
	// And the shared prefix clusters as BGP through the compiled walk.
	if got, ok := c.Lookup(netutil.MustParseAddr("10.1.2.3")); !ok || got.Kind != SourceBGP {
		t.Errorf("Lookup shared prefix = %+v ok=%v", got, ok)
	}
}

func TestCompiledIgnoresLaterAdds(t *testing.T) {
	m := NewMerged()
	m.Add(snap("B", SourceBGP, "10.0.0.0/8"))
	c := m.Compile()
	m.Add(snap("B2", SourceBGP, "20.0.0.0/8"))
	if _, ok := c.Lookup(netutil.MustParseAddr("20.1.2.3")); ok {
		t.Fatal("compiled snapshot observed a post-compile Add")
	}
	if _, ok := m.Compile().Lookup(netutil.MustParseAddr("20.1.2.3")); !ok {
		t.Fatal("recompile must pick up the new snapshot")
	}
}

// Exact-prefix provenance queries, for the tests: serving looks up
// addresses, and a snapshot carries provenance rows through MarshalTable.

// Provenance returns the recorded provenance for exactly p, matching
// Merged.Provenance (primary class shadows secondary for a prefix present
// in both).
func (c *Compiled) Provenance(p netutil.Prefix) (*Provenance, bool) {
	if c.inc != nil {
		return c.inc.provenance(p)
	}
	if c.snap != nil {
		return c.snap.provenance(p)
	}
	prov, ok := c.prov[p]
	return prov, ok
}

// KindOf reports which source class prefix p was compiled from (primary
// shadows secondary, as in Provenance).
func (c *Compiled) KindOf(p netutil.Prefix) (SourceKind, bool) {
	if c.inc != nil {
		return c.inc.kindOf(p)
	}
	if c.snap != nil {
		return c.snap.kindOf(p)
	}
	k, ok := c.kinds[p]
	return k, ok
}

// provenance serves Compiled.Provenance for incremental generations:
// primary class shadows secondary, as in Merged.Provenance.
func (inc *Incremental) provenance(p netutil.Prefix) (*Provenance, bool) {
	inc.mu.RLock()
	defer inc.mu.RUnlock()
	if pv, ok := inc.prov[0][p]; ok {
		return pv, true
	}
	pv, ok := inc.prov[1][p]
	return pv, ok
}

// kindOf serves Compiled.KindOf for incremental generations.
func (inc *Incremental) kindOf(p netutil.Prefix) (SourceKind, bool) {
	inc.mu.RLock()
	defer inc.mu.RUnlock()
	if _, ok := inc.prov[0][p]; ok {
		return SourceBGP, true
	}
	if _, ok := inc.prov[1][p]; ok {
		return SourceNetworkDump, true
	}
	return SourceBGP, false
}

func (s *snapTable) provenance(p netutil.Prefix) (*Provenance, bool) {
	i, ok := s.find(p)
	if !ok {
		return nil, false
	}
	return &Provenance{
		Sources:  s.sources(i),
		Kind:     SourceKind(s.recKind[i]),
		OriginAS: s.originAS[i],
	}, true
}

func (s *snapTable) kindOf(p netutil.Prefix) (SourceKind, bool) {
	i, ok := s.find(p)
	if !ok {
		return SourceBGP, false
	}
	if s.class[i] == 0 {
		return SourceBGP, true
	}
	return SourceNetworkDump, true
}

func (s *snapTable) find(p netutil.Prefix) (int, bool) {
	a, b := uint32(p.Addr()), byte(p.Bits())
	i := sort.Search(len(s.addr), func(i int) bool {
		return !provRowLess(s.addr[i], s.bits[i], a, b)
	})
	if i < len(s.addr) && s.addr[i] == a && s.bits[i] == b {
		return i, true
	}
	return 0, false
}
