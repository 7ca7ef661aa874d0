package bgpsim

import (
	"testing"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
)

func TestDiffRoundTrip(t *testing.T) {
	// Applying Diff(old, new) to old's prefix set must yield new's set.
	w := world(t, 150)
	s := New(w, DefaultConfig())
	vc := ViewConfig{Name: "AADS", Visibility: 0.4, Date: "d"}
	old := s.View(vc, 0)
	new_ := s.View(vc, 7)
	d := Diff(old, new_)

	set := old.PrefixSet()
	for _, op := range d.Ops {
		if op.Withdraw {
			if _, present := set[op.Entry.Prefix]; !present {
				t.Fatalf("withdraw of %v, which old does not contain", op.Entry.Prefix)
			}
			delete(set, op.Entry.Prefix)
		} else {
			if _, present := set[op.Entry.Prefix]; present {
				t.Fatalf("announce of %v, which old already contains", op.Entry.Prefix)
			}
			set[op.Entry.Prefix] = struct{}{}
		}
	}
	want := new_.PrefixSet()
	if len(set) != len(want) {
		t.Fatalf("after applying diff: %d prefixes, want %d", len(set), len(want))
	}
	for p := range want {
		if _, present := set[p]; !present {
			t.Fatalf("prefix %v missing after applying diff", p)
		}
	}
}

func TestDeltaSeriesReproducesViews(t *testing.T) {
	// Seeding an incremental table from day 0 and applying the delta
	// series must pass through exactly each day's snapshot — the
	// operational claim behind serving the paper's 14-day dynamics from a
	// live table instead of 14 recompiles.
	w := world(t, 120)
	s := New(w, DefaultConfig())
	vc := ViewConfig{Name: "OREGON", Visibility: 0.85, Date: "d"}
	const days = 5
	series := s.DeltaSeries(vc, days)
	if len(series) != days {
		t.Fatalf("DeltaSeries returned %d deltas, want %d", len(series), days)
	}

	day0 := s.View(vc, 0)
	m := bgp.NewMerged()
	m.Add(day0)
	inc := bgp.NewIncremental(m)
	for day := 1; day <= days; day++ {
		c := inc.Apply(series[day-1])
		want := s.View(vc, day).PrefixSet()
		have := bgp.UniverseOf(c, "incremental").PrefixSet()
		for p := range want {
			if _, ok := have[p]; !ok {
				t.Fatalf("day %d: view prefix %v missing from incremental table", day, p)
			}
		}
		// The loop covered the ⊇ direction; the size closes ⊆.
		if c.NumPrimary() != len(want) {
			t.Fatalf("day %d: table has %d primary prefixes, view has %d", day, c.NumPrimary(), len(want))
		}
	}
}

func TestChurnGenInvariants(t *testing.T) {
	w := world(t, 150)
	s := New(w, DefaultConfig())
	base := s.View(ViewConfig{Name: "AADS", Visibility: 0.5, Date: "d"}, 0)
	uniq := len(base.PrefixSet())

	cfg := DefaultChurnConfig()
	cfg.Seed = 5
	g := NewChurnGen(base, cfg)
	if len(g.live) != uniq {
		t.Fatalf("fresh generator: Live = %d, want %d (universe size)", len(g.live), uniq)
	}

	live := base.PrefixSet()
	for i := 0; i < 200; i++ {
		d := g.Next()
		if len(d.Ops) == 0 && len(g.live) > 0 && len(g.live) < uniq {
			t.Fatalf("batch %d: empty delta with a mixed universe", i)
		}
		for _, op := range d.Ops {
			if op.Withdraw {
				if _, present := live[op.Entry.Prefix]; !present {
					t.Fatalf("batch %d: withdrew %v, which is not live", i, op.Entry.Prefix)
				}
				delete(live, op.Entry.Prefix)
			} else {
				if _, present := live[op.Entry.Prefix]; present {
					t.Fatalf("batch %d: announced %v, which is already live", i, op.Entry.Prefix)
				}
				live[op.Entry.Prefix] = struct{}{}
			}
		}
		if len(g.live) != len(live) {
			t.Fatalf("batch %d: generator Live = %d, tracked %d", i, len(g.live), len(live))
		}
	}
	// The schedule flaps the universe, never grows or leaks it.
	if len(g.live) > uniq {
		t.Fatalf("Live = %d exceeds universe %d", len(g.live), uniq)
	}
}

func TestChurnGenDeterministic(t *testing.T) {
	w := world(t, 100)
	s := New(w, DefaultConfig())
	base := s.View(ViewConfig{Name: "X", Visibility: 0.5, Date: "d"}, 0)
	cfg := DefaultChurnConfig()
	cfg.Seed = 77
	a, b := NewChurnGen(base, cfg), NewChurnGen(base, cfg)
	for i := 0; i < 50; i++ {
		da, db := a.Next(), b.Next()
		if len(da.Ops) != len(db.Ops) {
			t.Fatalf("batch %d: sizes differ, %d vs %d", i, len(da.Ops), len(db.Ops))
		}
		for j := range da.Ops {
			if da.Ops[j].Withdraw != db.Ops[j].Withdraw || da.Ops[j].Entry.Prefix != db.Ops[j].Entry.Prefix {
				t.Fatalf("batch %d op %d: %+v vs %+v", i, j, da.Ops[j], db.Ops[j])
			}
		}
	}
}

func TestChurnGenBurstsHappen(t *testing.T) {
	w := world(t, 150)
	s := New(w, DefaultConfig())
	base := s.View(ViewConfig{Name: "Y", Visibility: 0.6, Date: "d"}, 0)
	cfg := DefaultChurnConfig()
	cfg.Seed = 3
	cfg.MeanBatch = 16
	cfg.Burstiness = 0.2
	g := NewChurnGen(base, cfg)
	maxOps := 0
	for i := 0; i < 100; i++ {
		if n := len(g.Next().Ops); n > maxOps {
			maxOps = n
		}
	}
	// A burst is MeanBatch*BurstMul±50%; with 100 draws at p=0.2 the odds
	// of seeing none are (0.8)^100 ≈ 2e-10.
	if maxOps < cfg.MeanBatch*cfg.BurstMul/2 {
		t.Fatalf("no burst in 100 batches: max ops = %d", maxOps)
	}
}

// Diff computes the delta that transforms snapshot old into snapshot
// new: prefixes only in old are withdrawn, prefixes only in new are
// announced (carrying new's entry metadata). Both snapshots must be of
// the same source kind.
func Diff(old, new *bgp.Snapshot) bgp.Delta {
	d := bgp.Delta{Source: new.Name}
	oldSet := old.PrefixSet()
	newSet := make(map[netutil.Prefix]struct{}, len(new.Entries))
	for _, e := range new.Entries {
		if _, dup := newSet[e.Prefix]; dup {
			continue
		}
		newSet[e.Prefix] = struct{}{}
		if _, present := oldSet[e.Prefix]; !present {
			d.Ops = append(d.Ops, bgp.Op{Kind: new.Kind, Entry: e})
		}
	}
	for p := range oldSet {
		if _, present := newSet[p]; !present {
			d.Ops = append(d.Ops, bgp.Op{Withdraw: true, Kind: old.Kind, Entry: bgp.Entry{Prefix: p}})
		}
	}
	return d
}

// DeltaSeries generates the day-over-day deltas of one vantage across a
// testing period: element i transforms the day-i view into the
// day-(i+1) view. Applying them in order to a table seeded from the
// day-0 view reproduces each day's snapshot incrementally.
func (s *Sim) DeltaSeries(cfg ViewConfig, days int) []bgp.Delta {
	out := make([]bgp.Delta, 0, days)
	prev := s.View(cfg, 0)
	for day := 1; day <= days; day++ {
		next := s.View(cfg, day)
		out = append(out, Diff(prev, next))
		prev = next
	}
	return out
}
