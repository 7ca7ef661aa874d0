package bgp

import (
	"context"
	"sync"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/radix"
)

var (
	deltaAnnounced = obsv.C("bgp.delta.announced")
	deltaWithdrawn = obsv.C("bgp.delta.withdrawn")
	deltaCompacts  = obsv.C("bgp.delta.compactions")
	deltaRenders   = obsv.C("bgp.delta.full_renders")
	spareWaits     = obsv.C("bgp.delta.spare_waits")
	spareWaitNS    = obsv.H("bgp.delta.spare_wait.ns")
)

// Op is one routing-table delta operation. An announce carries the full
// entry (prefix plus provenance metadata); a withdraw needs only
// Entry.Prefix and Kind. Withdrawals are table-level, not per-feed: the
// delta stream maintains the merged table itself, so withdrawing a
// prefix removes it from its source class outright.
type Op struct {
	Withdraw bool
	Kind     SourceKind
	Entry    Entry
}

// Delta is one batch of operations, typically everything a churn
// interval produced. Source labels the feed for provenance accounting.
type Delta struct {
	Source string
	Ops    []Op
}

// Announced and Withdrawn count the delta's operations by direction.
func (d Delta) Announced() int {
	n := 0
	for _, op := range d.Ops {
		if !op.Withdraw {
			n++
		}
	}
	return n
}

// Withdrawn counts the withdraw operations.
func (d Delta) Withdrawn() int { return len(d.Ops) - d.Announced() }

// Incremental maintains a Compiled table under a stream of deltas: each
// Apply patches the stride-8 match structure in place (node-local edits
// plus an incremental freeze, see radix.Dynamic) instead of recompiling
// from scratch, and returns a fresh immutable Compiled generation that
// readers of earlier generations are unaffected by.
//
// Incremental is single-writer: Apply calls must be serialized (the
// churn.Table wrapper does). The Compiled values it returns are safe for
// unlimited concurrent readers. Provenance for incrementally-built
// generations is served from a shared mutex-guarded store rather than
// per-generation maps — the match path stays lock-free, exact-prefix
// provenance queries pay an RLock.
//
// Sustained churn strands dead entry rows and emptied nodes in the
// shared structure (superseded node blocks are reclaimed by
// radix.Dynamic's own full render into a fresh arena, counted by
// "bgp.delta.full_renders"; a render that waits for that arena to be
// filled counts in "bgp.delta.spare_waits" and records the wait in the
// "bgp.delta.spare_wait.ns" histogram); when the dead rows' share
// crosses compactThreshold, Apply transparently rebuilds from the live
// key set (counted by the "bgp.delta.compactions" metric), bounding
// memory at a constant factor of the live table.
type Incremental struct {
	dyn *radix.Dynamic[compiledValue]

	mu sync.RWMutex
	// prov[0] is the primary (BGP) class, prov[1] the secondary
	// (network-dump) class, mirroring Merged's two trees.
	prov [2]map[netutil.Prefix]*Provenance
}

// compactThreshold is the dead-row fraction that triggers a rebuild.
const compactThreshold = 0.5

func classOf(k SourceKind) int {
	if k == SourceNetworkDump {
		return 1
	}
	return 0
}

func rankFor(k SourceKind, bits int) int {
	if k == SourceNetworkDump {
		return bits
	}
	return compiledPrimaryBias + bits
}

// NewIncremental seeds an incremental compiler from a merged table. The
// Merged's provenance records are shared, so the caller must stop
// mutating m (treat this as a handoff, like Compile's snapshot
// semantics — except the Incremental keeps absorbing deltas).
func NewIncremental(m *Merged) *Incremental {
	inc := &Incremental{
		dyn: radix.NewDynamic[compiledValue](),
	}
	inc.prov[0] = make(map[netutil.Prefix]*Provenance, m.NumPrimary())
	inc.prov[1] = make(map[netutil.Prefix]*Provenance, m.NumSecondary())
	m.primary.Walk(func(p netutil.Prefix, prov *Provenance) bool {
		inc.prov[0][p] = prov
		if p.Bits() > 0 {
			inc.dyn.InsertRanked(p, compiledValue{kind: SourceBGP}, rankFor(SourceBGP, p.Bits()))
		}
		return true
	})
	m.secondary.Walk(func(p netutil.Prefix, prov *Provenance) bool {
		inc.prov[1][p] = prov
		if p.Bits() > 0 {
			inc.dyn.InsertRanked(p, compiledValue{kind: SourceNetworkDump}, rankFor(SourceNetworkDump, p.Bits()))
		}
		return true
	})
	return inc
}

// Compiled renders the current state as an immutable generation without
// applying any operations — the generation-0 publication.
func (inc *Incremental) Compiled() *Compiled {
	return inc.publish()
}

// Apply patches the table with every operation of d and returns the new
// generation. Announcing a prefix already present updates its
// provenance; withdrawing an absent prefix is a no-op. The default route
// 0/0 is tracked for provenance but, as in Compile, never matches.
func (inc *Incremental) Apply(d Delta) *Compiled {
	return inc.ApplyCtx(context.Background(), d)
}

// ApplyCtx is Apply under a trace context: each batch records one
// "bgp.delta.apply" span with op counts as attributes.
func (inc *Incremental) ApplyCtx(ctx context.Context, d Delta) *Compiled {
	_, sp := obsv.StartTraceSpan(ctx, "bgp.delta.apply")
	announced, withdrawn := 0, 0
	for _, op := range d.Ops {
		p := op.Entry.Prefix
		class := classOf(op.Kind)
		if op.Withdraw {
			inc.mu.Lock()
			_, present := inc.prov[class][p]
			delete(inc.prov[class], p)
			inc.mu.Unlock()
			if present {
				withdrawn++
				if p.Bits() > 0 {
					inc.dyn.Remove(p, rankFor(op.Kind, p.Bits()))
				}
			}
			continue
		}
		announced++
		inc.mu.Lock()
		pv := inc.prov[class][p]
		if pv == nil {
			pv = &Provenance{Kind: op.Kind, OriginAS: op.Entry.OriginAS()}
			if d.Source != "" {
				pv.Sources = []string{d.Source}
			}
			inc.prov[class][p] = pv
		} else if d.Source != "" && !containsString(pv.Sources, d.Source) {
			// Copy-on-write: generations already published may be reading
			// the old record's Sources slice concurrently.
			np := &Provenance{
				Sources:  append(append([]string(nil), pv.Sources...), d.Source),
				Kind:     pv.Kind,
				OriginAS: pv.OriginAS,
			}
			if np.OriginAS == 0 {
				np.OriginAS = op.Entry.OriginAS()
			}
			inc.prov[class][p] = np
			pv = np
		}
		inc.mu.Unlock()
		if p.Bits() > 0 {
			inc.dyn.InsertRanked(p, compiledValue{kind: op.Kind}, rankFor(op.Kind, p.Bits()))
		}
	}
	deltaAnnounced.Add(uint64(announced))
	deltaWithdrawn.Add(uint64(withdrawn))
	inc.maybeCompact()
	c := inc.publish()
	sp.SetAttrInt("announced", int64(announced))
	sp.SetAttrInt("withdrawn", int64(withdrawn))
	sp.SetAttrInt("prefixes", int64(c.Len()))
	sp.End()
	return c
}

// maybeCompact rebuilds the dynamic structure from its live key set once
// dead arena rows outweigh compactThreshold of the total, releasing the
// memory stranded by sustained churn.
func (inc *Incremental) maybeCompact() {
	dead, live := inc.dyn.DeadEntries(), inc.dyn.Len()
	if dead == 0 || float64(dead) < compactThreshold*float64(dead+live) {
		return
	}
	fresh := radix.NewDynamic[compiledValue]()
	inc.dyn.Walk(func(p netutil.Prefix, rank int, v compiledValue) bool {
		fresh.InsertRanked(p, v, rank)
		return true
	})
	inc.dyn = fresh
	deltaCompacts.Inc()
}

func (inc *Incremental) publish() *Compiled {
	inc.mu.RLock()
	np, ns := len(inc.prov[0]), len(inc.prov[1])
	inc.mu.RUnlock()
	renders := inc.dyn.FullRenders()
	waits, waited := inc.dyn.SpareWaits()
	c := &Compiled{
		frozen:       inc.dyn.Freeze(),
		inc:          inc,
		numPrimary:   np,
		numSecondary: ns,
	}
	deltaRenders.Add(uint64(inc.dyn.FullRenders() - renders))
	if n, total := inc.dyn.SpareWaits(); n > waits {
		spareWaits.Add(uint64(n - waits))
		spareWaitNS.Observe(int64(total - waited))
	}
	compiledPrefixes.Set(int64(c.Len()))
	compiledNodes.Set(int64(c.frozen.NumNodes()))
	return c
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
