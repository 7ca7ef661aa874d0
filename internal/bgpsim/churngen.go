package bgpsim

import (
	"math/rand"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
)

// Churn-stream generation: the delta-shaped view of the BGP dynamics the
// day-indexed snapshots already model. ChurnGen synthesizes an
// open-ended bursty schedule against a base snapshot's prefix universe,
// for soak-testing a live service past the 14 days the paper observed.
// Churn literature (Kitsak et al.'s long-range correlations, Magnien et
// al.'s dynamics modeling) says update arrivals are bursty, not
// Poisson-smooth, so batch sizes follow a two-state quiet/burst regime.

// ChurnConfig parameterizes a synthetic bursty churn schedule.
type ChurnConfig struct {
	Seed int64
	// MeanBatch is the expected ops per quiet-regime batch.
	MeanBatch int
	// Burstiness is the probability a batch is a burst; BurstMul scales
	// burst batches relative to MeanBatch. The paper's period-0 dynamic
	// sets (intraday flaps of a few percent) motivate the defaults.
	Burstiness float64
	BurstMul   int
	// WithdrawFrac is the fraction of ops that withdraw a live prefix;
	// the rest re-announce dead prefixes or fresh ones, holding the
	// table near its base size.
	WithdrawFrac float64
}

// DefaultChurnConfig returns a schedule shaped like ~1% daily deltas
// with occasional 8x bursts.
func DefaultChurnConfig() ChurnConfig {
	return ChurnConfig{
		Seed:         1,
		MeanBatch:    32,
		Burstiness:   0.15,
		BurstMul:     8,
		WithdrawFrac: 0.5,
	}
}

// ChurnGen produces an endless stream of deltas against a base
// snapshot's universe. It tracks which prefixes are live so withdrawals
// always name a present prefix and announcements favor resurrecting
// withdrawn ones — a flap-dominated mix, matching the observation that
// most routing dynamics are the same prefixes coming and going.
type ChurnGen struct {
	rng  *rand.Rand
	cfg  ChurnConfig
	kind bgp.SourceKind
	name string

	entries []bgp.Entry // universe, deduplicated by prefix
	live    []int       // indices into entries currently announced
	dead    []int       // indices currently withdrawn
	pos     map[netutil.Prefix]int
}

// NewChurnGen builds a generator over base's prefix universe; every
// prefix starts live.
func NewChurnGen(base *bgp.Snapshot, cfg ChurnConfig) *ChurnGen {
	if cfg.MeanBatch <= 0 {
		cfg.MeanBatch = 32
	}
	if cfg.BurstMul <= 0 {
		cfg.BurstMul = 8
	}
	g := &ChurnGen{
		rng:  rand.New(rand.NewSource(cfg.Seed ^ 0xc4172)),
		cfg:  cfg,
		kind: base.Kind,
		name: base.Name,
		pos:  make(map[netutil.Prefix]int),
	}
	for _, e := range base.Entries {
		if _, dup := g.pos[e.Prefix]; dup {
			continue
		}
		g.pos[e.Prefix] = len(g.entries)
		g.entries = append(g.entries, e)
		g.live = append(g.live, len(g.entries)-1)
	}
	return g
}

// Next produces the next delta batch. Batch size is MeanBatch±50% in
// the quiet regime and MeanBatch*BurstMul±50% in a burst.
func (g *ChurnGen) Next() bgp.Delta {
	n := g.cfg.MeanBatch
	if g.rng.Float64() < g.cfg.Burstiness {
		n *= g.cfg.BurstMul
	}
	n = n/2 + g.rng.Intn(n+1) // uniform in [n/2, 3n/2]
	d := bgp.Delta{Source: g.name}
	for i := 0; i < n; i++ {
		if len(g.live) > 0 && g.rng.Float64() < g.cfg.WithdrawFrac {
			k := g.rng.Intn(len(g.live))
			idx := g.live[k]
			g.live[k] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
			g.dead = append(g.dead, idx)
			d.Ops = append(d.Ops, bgp.Op{Withdraw: true, Kind: g.kind, Entry: bgp.Entry{Prefix: g.entries[idx].Prefix}})
			continue
		}
		if len(g.dead) == 0 {
			continue // universe fully announced and the dice said announce
		}
		k := g.rng.Intn(len(g.dead))
		idx := g.dead[k]
		g.dead[k] = g.dead[len(g.dead)-1]
		g.dead = g.dead[:len(g.dead)-1]
		g.live = append(g.live, idx)
		d.Ops = append(d.Ops, bgp.Op{Kind: g.kind, Entry: g.entries[idx]})
	}
	return d
}
