// Package bgpsim derives BGP routing-table snapshots from the ground-truth
// Internet of internal/inet, reproducing the observational artifacts the
// paper depends on:
//
//   - every vantage point sees only part of the topology ("none of them
//     contain complete information of all the prefixes");
//   - some ASes are visible only as aggregated allocation blocks, the main
//     source of too-large clusters in the paper's validation;
//   - registries (ARIN/NLANR-style network dumps) list allocations, which
//     are coarser than routed prefixes but cover otherwise invisible ASes;
//   - tables churn day to day (Section 3.4's BGP dynamics).
//
// All randomness is deterministic: a view is a pure function of (world,
// vantage name, seed, day), so experiments are exactly reproducible and a
// day-0 view can be regenerated when computing dynamic prefix sets.
package bgpsim

import (
	"hash/fnv"
	"math/rand"
	"sort"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/inet"
	"github.com/netaware/netcluster/internal/netutil"
)

// ViewConfig describes one vantage point's observational quality.
type ViewConfig struct {
	Name string
	// Visibility is the probability that a specifically-announced network
	// prefix reaches this vantage. Big route viewers (Oregon-style) sit
	// near 0.95; tiny regional tables near 0.05.
	Visibility float64
	// Date labels the snapshot (freeform, like the paper's Table 1).
	Date string
	// Comment mirrors the "Comments" column of Table 1.
	Comment string
}

// announceMode is how an AS's allocation appears in the global system: as
// its specific network prefixes, as one aggregate, as both, or not at all.
type announceMode int

const (
	modeSpecifics announceMode = iota
	modeAggregate
	modeBoth
	modeDark
)

// Sim holds the per-world announcement decisions shared by every view, so
// that different vantages agree on what exists and differ only in what they
// happen to see — exactly how real BGP views relate.
type Sim struct {
	world *inet.Internet
	seed  int64
	// modeByAlloc maps (AS number, allocation index) to its announce mode.
	modeByAlloc map[allocKey]announceMode
}

type allocKey struct {
	asn   uint32
	alloc int
}

// Config controls the global announcement behaviour.
type Config struct {
	Seed int64
	// AggregateOnlyProb, BothProb, DarkProb partition allocation behaviour;
	// the remainder announce specifics only.
	AggregateOnlyProb float64
	BothProb          float64
	DarkProb          float64
}

// DefaultConfig mirrors the error rates the paper observed: route
// aggregation is the dominant source of too-large clusters (roughly half
// of the ~10% validation failures), and ~1% of clients need the registry
// fallback because no BGP prefix covers them.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		AggregateOnlyProb: 0.22,
		BothProb:          0.15,
		DarkProb:          0.012,
	}
}

// New builds a simulator over world: it fixes each allocation's global
// announce mode.
func New(world *inet.Internet, cfg Config) *Sim {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	s := &Sim{world: world, seed: cfg.Seed, modeByAlloc: make(map[allocKey]announceMode)}
	for _, as := range world.ASes {
		for i := range as.Allocations {
			r := rng.Float64()
			var m announceMode
			switch {
			case r < cfg.DarkProb:
				m = modeDark
			case r < cfg.DarkProb+cfg.AggregateOnlyProb:
				m = modeAggregate
			case r < cfg.DarkProb+cfg.AggregateOnlyProb+cfg.BothProb:
				m = modeBoth
			default:
				m = modeSpecifics
			}
			s.modeByAlloc[allocKey{as.Number, i}] = m
		}
	}
	return s
}

// viewRNG builds the deterministic RNG for a (view, day) pair.
func (s *Sim) viewRNG(name string, day int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(s.seed ^ int64(h.Sum64()) ^ int64(day)*0x9e3779b9))
}

// allocOf finds the allocation index containing network n within its AS.
func allocOf(n *inet.Network) int {
	for i, a := range n.AS.Allocations {
		if a.ContainsPrefix(n.Prefix) {
			return i
		}
	}
	return -1
}

// View generates the routing table visible at one vantage on one day.
// Day 0 is the base snapshot; later days apply cumulative churn (see
// churned below) to model BGP dynamics.
func (s *Sim) View(cfg ViewConfig, day int) *bgp.Snapshot {
	rng := s.viewRNG(cfg.Name, 0) // base-view decisions are day-independent
	snap := &bgp.Snapshot{
		Name:    cfg.Name,
		Kind:    bgp.SourceBGP,
		Date:    cfg.Date,
		Comment: cfg.Comment,
	}
	// Per-AS transit paths as seen from this vantage: synthesized once per
	// view so that entries for one AS share a coherent path. VantageASes
	// scans every AS, so it is taken once per view, not once per AS.
	vantages := s.world.VantageASes()
	pathFor := func(origin *inet.AS) []uint32 {
		n := 1 + rng.Intn(3)
		path := make([]uint32, 0, n+1)
		for i := 0; i < n && len(vantages) > 0; i++ {
			path = append(path, vantages[rng.Intn(len(vantages))].Number)
		}
		return append(path, origin.Number)
	}
	for _, as := range s.world.ASes {
		asPath := pathFor(as)
		for i, alloc := range as.Allocations {
			mode := s.modeByAlloc[allocKey{as.Number, i}]
			if mode == modeDark {
				continue
			}
			aggregateVisible := (mode == modeAggregate || mode == modeBoth) && rng.Float64() < cfg.Visibility
			if aggregateVisible {
				snap.Entries = append(snap.Entries, bgp.Entry{
					Prefix:      alloc,
					Description: as.Name,
					NextHop:     "peer." + cfg.Name + ".net",
					ASPath:      asPath,
					PeerDesc:    as.Name,
				})
			}
			if mode == modeAggregate {
				continue
			}
			for _, n := range as.Networks {
				if !alloc.ContainsPrefix(n.Prefix) {
					continue
				}
				if rng.Float64() >= cfg.Visibility {
					continue
				}
				snap.Entries = append(snap.Entries, bgp.Entry{
					Prefix:      n.Prefix,
					Description: n.Domain,
					NextHop:     "peer." + cfg.Name + ".net",
					ASPath:      asPath,
					PeerDesc:    as.Name,
				})
			}
		}
	}
	if day > 0 {
		s.churn(snap, cfg, day)
	}
	sortEntries(snap)
	return snap
}

// churn applies day-to-day BGP dynamics: every day a small fraction of the
// base prefixes flap out and a small set of previously unseen specifics
// flap in. Changes accumulate as a random walk, so the dynamic prefix set
// (prefixes not present every day) grows sub-linearly with period length —
// the shape of the paper's Table 4.
func (s *Sim) churn(snap *bgp.Snapshot, cfg ViewConfig, day int) {
	const dailyOut = 0.004 // fraction of entries withdrawn per day
	const dailyIn = 0.005  // fraction of entries (newly) announced per day

	// Withdrawals: a prefix is out on `day` if any of days 1..day flapped
	// it out an odd number of... keep it simpler: each prefix has a random
	// walk seeded by (view, prefix); on each day it toggles out with prob
	// dailyOut and back in with prob 0.5.
	kept := snap.Entries[:0]
	for _, e := range snap.Entries {
		if s.presentOnDay(cfg.Name, e.Prefix, day, dailyOut) {
			kept = append(kept, e)
		}
	}
	snap.Entries = kept

	// Announcements: draw from networks this view's base missed.
	rng := s.viewRNG(cfg.Name, day)
	extra := int(float64(len(snap.Entries)) * dailyIn * float64(day) / 2)
	for i := 0; i < extra; i++ {
		n := s.world.Networks[rng.Intn(len(s.world.Networks))]
		snap.Entries = append(snap.Entries, bgp.Entry{
			Prefix:      n.Prefix,
			Description: n.Domain,
			NextHop:     "peer." + cfg.Name + ".net",
			ASPath:      []uint32{n.AS.Number},
			PeerDesc:    n.AS.Name,
		})
	}
}

// ViewIntraday generates a second same-day snapshot of a view: the paper's
// sources refresh every 30 minutes to 2 hours, so even a zero-day period
// sees some churn (Table 4's period-0 "maximum effect"). A quarter of one
// day's withdrawal pressure is applied, plus a pinch of fresh
// announcements.
func (s *Sim) ViewIntraday(cfg ViewConfig) *bgp.Snapshot {
	snap := s.View(cfg, 0)
	rng := s.viewRNG(cfg.Name, -1)
	kept := snap.Entries[:0]
	for _, e := range snap.Entries {
		// ~1.5% of entries flap across a day of 2-hourly refreshes; the
		// paper's AADS period-0 dynamic set is ~4% of the table, built
		// from a dozen intraday snapshots.
		if rng.Float64() < 0.015 {
			continue
		}
		kept = append(kept, e)
	}
	snap.Entries = kept
	extra := int(float64(len(snap.Entries)) * 0.018)
	for i := 0; i < extra; i++ {
		n := s.world.Networks[rng.Intn(len(s.world.Networks))]
		snap.Entries = append(snap.Entries, bgp.Entry{
			Prefix:      n.Prefix,
			Description: n.Domain,
			NextHop:     "peer." + cfg.Name + ".net",
			ASPath:      []uint32{n.AS.Number},
			PeerDesc:    n.AS.Name,
		})
	}
	sortEntries(snap)
	return snap
}

// presentOnDay runs the per-prefix random walk: starting present, each day
// the prefix withdraws with probability out; once out, it returns the next
// day with probability 0.5.
func (s *Sim) presentOnDay(view string, p netutil.Prefix, day int, out float64) bool {
	h := fnv.New64a()
	h.Write([]byte(view))
	var buf [5]byte
	o := p.Addr().Octets()
	copy(buf[:4], o[:])
	buf[4] = byte(p.Bits())
	h.Write(buf[:])
	rng := rand.New(rand.NewSource(s.seed ^ int64(h.Sum64())))
	present := true
	for d := 1; d <= day; d++ {
		if present {
			if rng.Float64() < out {
				present = false
			}
		} else {
			if rng.Float64() < 0.5 {
				present = true
			}
		}
	}
	return present
}

// Registry generates an ARIN-style network dump: the registry's view of
// allocations, regardless of whether they are routed. Coverage < 1 models
// allocations that predate the registry's records; those clients end up
// unclusterable even with the secondary source, the paper's residual ~0.1%.
func (s *Sim) Registry(name, date string, coverage float64) *bgp.Snapshot {
	rng := s.viewRNG(name, 0)
	snap := &bgp.Snapshot{
		Name:    name,
		Kind:    bgp.SourceNetworkDump,
		Date:    date,
		Comment: "IP network dump",
	}
	for _, as := range s.world.ASes {
		for _, alloc := range as.Allocations {
			if rng.Float64() >= coverage {
				continue
			}
			snap.Entries = append(snap.Entries, bgp.Entry{
				Prefix:      alloc,
				Description: as.Name,
				PeerDesc:    as.Name,
			})
		}
	}
	sortEntries(snap)
	return snap
}

func sortEntries(s *bgp.Snapshot) {
	sort.Slice(s.Entries, func(i, j int) bool {
		return netutil.ComparePrefix(s.Entries[i].Prefix, s.Entries[j].Prefix) < 0
	})
}
