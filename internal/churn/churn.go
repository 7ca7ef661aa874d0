// Package churn turns the batch clustering pipeline's frozen prefix
// table into a long-lived, continuously updated one: a single writer
// absorbs BGP announce/withdraw deltas through the incremental compiler
// (bgp.Incremental) while any number of readers keep doing lock-free
// lookups against whichever generation they loaded.
//
// Publication is RCU-style: Apply builds the next immutable Compiled
// generation off to the side and swings one atomic.Pointer; readers
// never block, never observe a half-built table, and readers still
// inside an old generation finish against it undisturbed. This is the
// paper's §BGP-dynamics operationalized — day-to-day routing churn is
// continuous and bursty (Kitsak et al.; Magnien et al.), so a
// production clustering service cannot afford the offline
// rebuild-the-world cycle the batch pipeline uses.
//
// Each swap also computes the cluster-ID stability map across the two
// generations: the paper measures how much day-over-day BGP deltas
// perturb cluster identification; here the same measurement runs live,
// classifying every changed prefix as carryover, split, merge, move, or
// a coverage gain/loss, and surfacing the tallies as obsv gauges.
package churn

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
)

var (
	gaugeGeneration = obsv.G("churn.generation")
	gaugeCarryover  = obsv.G("churn.swap.carryover")
	gaugeSplits     = obsv.G("churn.swap.splits")
	gaugeMerges     = obsv.G("churn.swap.merges")
	gaugeMoved      = obsv.G("churn.swap.moved")
	gaugeGained     = obsv.G("churn.swap.gained")
	gaugeLost       = obsv.G("churn.swap.lost")
	countSwaps      = obsv.C("churn.swaps")
	histApplyNS     = obsv.H("churn.apply.ns")
)

// SwapStats is the outcome of one Apply: what the delta did to the
// table and how it perturbed cluster identity. Perturbation is measured
// at the boundary addresses (first and last) of every prefix the delta
// touched — the addresses whose cluster assignment the change could
// have moved.
type SwapStats struct {
	Generation uint64 // generation number just published
	Announced  int    // ops that added or refreshed a prefix
	Withdrawn  int    // ops that removed a live prefix

	// Cluster-ID stability classification over the probe points:
	Carryover int // same cluster prefix before and after
	Splits    int // new cluster is a strict subdivision of the old
	Merges    int // new cluster strictly contains the old
	Moved     int // clustered before and after, under unrelated prefixes
	Gained    int // unclusterable before, clustered after
	Lost      int // clustered before, unclusterable after
}

// Probes returns how many probe points the stability map classified.
func (s SwapStats) Probes() int {
	return s.Carryover + s.Splits + s.Merges + s.Moved + s.Gained + s.Lost
}

// Table is the RCU-published clustering table. The zero value is not
// usable; construct with New.
type Table struct {
	mu  sync.Mutex // serializes writers (Apply, and the inc behind it)
	inc *bgp.Incremental
	cur atomic.Pointer[bgp.Compiled]
	gen atomic.Uint64
}

// New seeds a churn table from a merged snapshot collection, publishing
// generation 0. Ownership of m passes to the table (see
// bgp.NewIncremental).
func New(m *bgp.Merged) *Table {
	t := &Table{inc: bgp.NewIncremental(m)}
	t.cur.Store(t.inc.Compiled())
	gaugeGeneration.Set(0)
	return t
}

// NewFromCompiled warm-starts a churn table from an immutable compiled
// table — one loaded from a snapshot file or received from a delta
// feed's catch-up endpoint — publishing it as generation gen with a live
// compiler behind it, so the table keeps absorbing deltas from wherever
// the snapshot left off. keep optionally restricts the rebuild to the
// prefixes a shard node owns (nil retains everything).
func NewFromCompiled(c *bgp.Compiled, keep func(netutil.Prefix) bool, gen uint64) *Table {
	t := &Table{inc: bgp.NewIncrementalFromCompiled(c, keep)}
	t.cur.Store(t.inc.Compiled())
	t.gen.Store(gen)
	gaugeGeneration.Set(int64(gen))
	return t
}

// Reseed replaces the table's entire contents and generation in one
// publication — the delta-stream resync path, taken when a follower has
// fallen further behind than the feed's retained log and must restart
// from a fresh snapshot. Readers pinned to earlier generations finish
// against them undisturbed, exactly as with Apply's swaps; the published
// generation may move backward or jump forward, matching the snapshot's
// position in the stream.
func (t *Table) Reseed(c *bgp.Compiled, keep func(netutil.Prefix) bool, gen uint64) {
	inc := bgp.NewIncrementalFromCompiled(c, keep)
	t.mu.Lock()
	t.inc = inc
	t.cur.Store(inc.Compiled())
	t.gen.Store(gen)
	t.mu.Unlock()
	gaugeGeneration.Set(int64(gen))
}

// Load returns the current generation. It is wait-free: one atomic
// pointer load, safe from any number of goroutines, and the returned
// table remains valid (and immutable) however many swaps follow.
func (t *Table) Load() *bgp.Compiled { return t.cur.Load() }

// Generation returns the number of swaps published so far.
func (t *Table) Generation() uint64 { return t.gen.Load() }

// Lookup is shorthand for Load().Lookup — the service hot path.
func (t *Table) Lookup(addr netutil.Addr) (bgp.Match, bool) {
	return t.cur.Load().Lookup(addr)
}

// LookupBatch resolves a whole probe set against one pinned generation:
// a single Load covers the entire batch, so every result is from the
// same table even while swaps land mid-batch. It returns the generation
// the batch ran against along with the matches (dst conventions as in
// bgp.Compiled.LookupBatch: reused when capacity allows, zero Match =
// unclusterable).
func (t *Table) LookupBatch(addrs []netutil.Addr, dst []bgp.Match) ([]bgp.Match, uint64) {
	// Generation is read before the table: if a swap lands between the
	// two loads the batch runs against a generation at least as new as
	// the label, never older — the label is advisory, matching how
	// clusterd pairs Load() with Generation().
	gen := t.gen.Load()
	return t.cur.Load().LookupBatch(addrs, dst), gen
}

// Apply patches the table with d, publishes the new generation, and
// returns the swap's stability accounting. Safe to call from multiple
// goroutines (writers serialize on an internal mutex); readers are
// never blocked.
func (t *Table) Apply(d bgp.Delta) SwapStats {
	return t.ApplyCtx(context.Background(), d)
}

// ApplyCtx is Apply under a trace context: the batch's compile work
// records a "bgp.delta.apply" span and the whole swap a "churn.swap"
// span.
func (t *Table) ApplyCtx(ctx context.Context, d bgp.Delta) SwapStats {
	sctx, sp := obsv.StartTraceSpan(ctx, "churn.swap")
	t.mu.Lock()
	old := t.cur.Load()
	start := time.Now()
	next := t.inc.ApplyCtx(sctx, d)
	applyNS := time.Since(start).Nanoseconds()
	t.cur.Store(next)
	gen := t.gen.Add(1)
	t.mu.Unlock()

	st := stability(old, next, d)
	st.Generation = gen
	st.Announced = d.Announced()
	st.Withdrawn = d.Withdrawn()

	countSwaps.Inc()
	histApplyNS.Observe(applyNS)
	gaugeGeneration.Set(int64(gen))
	gaugeCarryover.Set(int64(st.Carryover))
	gaugeSplits.Set(int64(st.Splits))
	gaugeMerges.Set(int64(st.Merges))
	gaugeMoved.Set(int64(st.Moved))
	gaugeGained.Set(int64(st.Gained))
	gaugeLost.Set(int64(st.Lost))

	sp.SetAttrInt("generation", int64(gen))
	sp.SetAttrInt("ops", int64(len(d.Ops)))
	sp.SetAttrInt("probes", int64(st.Probes()))
	sp.End()
	return st
}

// stability classifies the cluster-identity change at the boundary
// addresses of every prefix d touched. Cost is O(|d.Ops|) lookups
// against each generation — independent of table size, so the swap path
// stays cheap under heavy churn.
func stability(old, next *bgp.Compiled, d bgp.Delta) SwapStats {
	var st SwapStats
	seen := make(map[netutil.Addr]struct{}, 2*len(d.Ops))
	for _, op := range d.Ops {
		for _, addr := range [2]netutil.Addr{op.Entry.Prefix.First(), op.Entry.Prefix.Last()} {
			if _, dup := seen[addr]; dup {
				continue
			}
			seen[addr] = struct{}{}
			om, ook := old.Lookup(addr)
			nm, nok := next.Lookup(addr)
			switch {
			case !ook && !nok:
				// outside both tables; not a perturbation
			case !ook && nok:
				st.Gained++
			case ook && !nok:
				st.Lost++
			case om.Prefix == nm.Prefix:
				st.Carryover++
			case om.Prefix.ContainsPrefix(nm.Prefix):
				st.Splits++
			case nm.Prefix.ContainsPrefix(om.Prefix):
				st.Merges++
			default:
				st.Moved++
			}
		}
	}
	return st
}
