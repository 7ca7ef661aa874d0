package bgpsim

import (
	"math/rand"
	"testing"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/inet"
)

func world(t *testing.T, numASes int) *inet.Internet {
	t.Helper()
	cfg := inet.DefaultConfig()
	cfg.NumASes = numASes
	cfg.NumTierOne = 8
	in, err := inet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestViewDeterministic(t *testing.T) {
	w := world(t, 150)
	s := New(w, DefaultConfig())
	vc := ViewConfig{Name: "AADS", Visibility: 0.5, Date: "d"}
	a := s.View(vc, 0)
	b := s.View(vc, 0)
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("same view differs: %d vs %d entries", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		if a.Entries[i].Prefix != b.Entries[i].Prefix {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestViewVisibilityScalesSize(t *testing.T) {
	w := world(t, 200)
	s := New(w, DefaultConfig())
	small := s.View(ViewConfig{Name: "CANET", Visibility: 0.05}, 0)
	big := s.View(ViewConfig{Name: "OREGON", Visibility: 0.9}, 0)
	if len(small.Entries) >= len(big.Entries) {
		t.Fatalf("low-visibility view (%d entries) should be smaller than high (%d)",
			len(small.Entries), len(big.Entries))
	}
	if len(big.Entries) == 0 {
		t.Fatal("big view empty")
	}
}

func TestViewsDiffer(t *testing.T) {
	w := world(t, 200)
	s := New(w, DefaultConfig())
	a := s.View(ViewConfig{Name: "MAE-EAST", Visibility: 0.5}, 0)
	b := s.View(ViewConfig{Name: "MAE-WEST", Visibility: 0.5}, 0)
	onlyA := 0
	bset := b.PrefixSet()
	for p := range a.PrefixSet() {
		if _, ok := bset[p]; !ok {
			onlyA++
		}
	}
	if onlyA == 0 {
		t.Error("two equal-visibility vantages should still see different route sets")
	}
}

func TestMergedCoverage(t *testing.T) {
	w := world(t, 400)
	s := New(w, DefaultConfig())
	m := Merge(s.Collect())
	rng := rand.New(rand.NewSource(5))

	total, clustered, viaBGP := 0, 0, 0
	for i := 0; i < 3000; i++ {
		n := w.Networks[rng.Intn(len(w.Networks))]
		h := n.RandomHost(rng)
		total++
		match, ok := m.Lookup(h)
		if !ok {
			continue
		}
		clustered++
		if match.Kind == bgp.SourceBGP {
			viaBGP++
		}
	}
	cov := float64(clustered) / float64(total)
	if cov < 0.995 {
		t.Errorf("merged coverage = %.4f, want ≥ 0.995 (paper: 99.9%%)", cov)
	}
	bgpFrac := float64(viaBGP) / float64(total)
	if bgpFrac < 0.97 {
		t.Errorf("BGP-source coverage = %.4f, want ~0.99 (paper: 99%%)", bgpFrac)
	}
	if viaBGP == clustered {
		t.Error("expected a small fraction of clients to need the registry fallback")
	}
}

func TestRegistryCoarserThanBGP(t *testing.T) {
	w := world(t, 200)
	s := New(w, DefaultConfig())
	reg := s.Registry("ARIN", "10/1999", 0.95)
	if reg.Kind != bgp.SourceNetworkDump {
		t.Fatal("registry must be a network dump")
	}
	// Registry entries are allocations: mean prefix length must be shorter
	// than the mean routed prefix length.
	view := s.View(ViewConfig{Name: "OREGON", Visibility: 0.9}, 0)
	mean := func(s *bgp.Snapshot) float64 {
		sum := 0
		for _, e := range s.Entries {
			sum += e.Prefix.Bits()
		}
		return float64(sum) / float64(len(s.Entries))
	}
	if mean(reg) >= mean(view) {
		t.Errorf("registry mean length %.1f should be < BGP view mean %.1f", mean(reg), mean(view))
	}
}

func TestCollectTableSizeOrdering(t *testing.T) {
	w := world(t, 400)
	s := New(w, DefaultConfig())
	c := s.Collect()
	if len(c.Views) != len(StandardViews()) || len(c.Registries) != 2 {
		t.Fatalf("collection shape: %d views, %d registries", len(c.Views), len(c.Registries))
	}
	sizes := map[string]int{}
	for _, v := range c.Views {
		sizes[v.Name] = len(v.PrefixSet())
	}
	if sizes["CANET"] >= sizes["OREGON"] {
		t.Errorf("CANET (%d) should be far smaller than OREGON (%d)", sizes["CANET"], sizes["OREGON"])
	}
	if sizes["VBNS"] >= sizes["AT&T-BGP"] {
		t.Errorf("VBNS (%d) should be far smaller than AT&T-BGP (%d)", sizes["VBNS"], sizes["AT&T-BGP"])
	}
}

func TestDynamicsGrowWithPeriod(t *testing.T) {
	w := world(t, 300)
	s := New(w, DefaultConfig())
	vc := ViewConfig{Name: "AADS", Visibility: 0.4}
	base := s.View(vc, 0)

	var prevEffect int
	for _, days := range [][]int{{0, 1}, {0, 1, 4}, {0, 1, 4, 7}, {0, 1, 4, 7, 14}} {
		var series []*bgp.Snapshot
		for _, d := range days {
			series = append(series, s.View(vc, d))
		}
		dyn := bgp.DynamicPrefixSet(series)
		effect := len(dyn)
		if effect < prevEffect {
			t.Errorf("maximum effect shrank with longer period: %d -> %d", prevEffect, effect)
		}
		prevEffect = effect
		frac := float64(effect) / float64(len(base.PrefixSet()))
		if frac > 0.15 {
			t.Errorf("dynamic fraction %.3f too large for period %v", frac, days)
		}
	}
	if prevEffect == 0 {
		t.Error("14-day period should show some churn")
	}
}

func TestChurnedViewStillSorted(t *testing.T) {
	w := world(t, 150)
	s := New(w, DefaultConfig())
	v := s.View(ViewConfig{Name: "AADS", Visibility: 0.4}, 7)
	for i := 1; i < len(v.Entries); i++ {
		a, b := v.Entries[i-1].Prefix, v.Entries[i].Prefix
		if a.Addr() > b.Addr() {
			t.Fatalf("entries unsorted at %d: %v > %v", i, a, b)
		}
	}
}

func TestDarkAllocationsInvisible(t *testing.T) {
	w := world(t, 300)
	cfg := DefaultConfig()
	cfg.DarkProb = 1.0 // everything dark
	cfg.AggregateOnlyProb = 0
	cfg.BothProb = 0
	s := New(w, cfg)
	v := s.View(ViewConfig{Name: "OREGON", Visibility: 1.0}, 0)
	if len(v.Entries) != 0 {
		t.Fatalf("all-dark world still has %d entries", len(v.Entries))
	}
	// But the registry still lists the allocations.
	reg := s.Registry("ARIN", "10/1999", 1.0)
	if len(reg.Entries) == 0 {
		t.Fatal("registry must list dark allocations")
	}
}

func TestAggregateOnlyYieldsAllocPrefixes(t *testing.T) {
	w := world(t, 200)
	cfg := DefaultConfig()
	cfg.AggregateOnlyProb = 1.0
	cfg.BothProb = 0
	cfg.DarkProb = 0
	s := New(w, cfg)
	v := s.View(ViewConfig{Name: "OREGON", Visibility: 1.0}, 0)
	allocs := map[string]bool{}
	for _, as := range w.ASes {
		for _, a := range as.Allocations {
			allocs[a.String()] = true
		}
	}
	if len(v.Entries) == 0 {
		t.Fatal("no entries")
	}
	for _, e := range v.Entries {
		if !allocs[e.Prefix.String()] {
			t.Fatalf("aggregate-only view leaked non-allocation prefix %v", e.Prefix)
		}
	}
}
