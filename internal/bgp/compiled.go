package bgp

import (
	"context"
	"sync"
	"unsafe"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/radix"
)

// Compile-time observability: building the FIB-style snapshot is the
// operation a production deployment repeats on every table refresh, so
// its wall time, allocation volume and resulting footprint are tracked.
// The per-lookup hot path (Compiled.Lookup) carries no instrumentation —
// counting and depth sampling happen one layer up in internal/cluster,
// where the cost amortizes per distinct client (see obsv's overhead
// budget).
var (
	compiledPrefixes = obsv.G("bgp.compiled.prefixes")
	compiledNodes    = obsv.G("bgp.compiled.nodes")
)

// Compiled is an immutable, read-optimized snapshot of a Merged table. The
// primary/secondary precedence of Section 3.1.1 — longest match among
// BGP-derived prefixes first, network-dump prefixes only as a fallback —
// is folded into a single stride-8 multibit structure at compile time, so
// one flat-array walk replaces the two pointer-chasing tree walks of
// Merged.Lookup. Compiled is safe for unlimited concurrent readers with no
// locks; it does not observe later Add calls on the source table, so
// recompile after merging new snapshots (routers rebuild expanded FIBs on
// change for the same reason).
type Compiled struct {
	frozen *radix.Frozen[compiledValue]
	prov   map[netutil.Prefix]*Provenance
	kinds  map[netutil.Prefix]SourceKind
	// inc is set on generations published by an Incremental compiler;
	// Provenance and KindOf then read the compiler's live store (under
	// its RWMutex) instead of per-generation maps. The match structure
	// (frozen) and the class counts are still immutable per generation.
	inc *Incremental
	// snap is set on tables loaded from a snapshot file; Provenance and
	// KindOf then binary-search the (possibly memory-mapped) provenance
	// sidecar instead of maps — see tablefile.go.
	snap                     *snapTable
	numPrimary, numSecondary int
}

// compiledValue is the per-entry payload of the match structure: just the
// winning source class. Provenance is deliberately not stored per row —
// exact-prefix provenance queries go through the per-generation maps, the
// incremental store, or a snapshot's lazy sidecar — which keeps the value
// array one byte of information per row and makes it serializable.
type compiledValue struct {
	kind SourceKind
}

// Precedence ranks: any primary (BGP) prefix must beat any secondary
// (network dump) prefix, and within a class longer prefixes win — exactly
// the order Merged.Lookup establishes with its two sequential walks. The
// rank (classBias + bits) collapses that two-key comparison into one
// integer, so the multibit slot rule and the lookup walk need no
// class-specific branches.
const compiledPrimaryBias = 64

// Compile builds the read-optimized form of the table. The default route
// 0/0 is excluded from the match structure — Merged.Lookup already treats
// it as unclusterable in either class — but retains its provenance entry.
func (m *Merged) Compile() *Compiled {
	return m.CompileCtx(context.Background())
}

// CompileCtx is Compile under a trace context: the compile records a
// "bgp.compile" span (with prefix and node counts as attributes) into
// the flight recorder, parented to whatever span ctx carries.
func (m *Merged) CompileCtx(ctx context.Context) *Compiled {
	_, sp := obsv.StartTraceSpan(ctx, "bgp.compile")
	c := &Compiled{
		prov:         make(map[netutil.Prefix]*Provenance, m.Len()),
		kinds:        make(map[netutil.Prefix]SourceKind, m.Len()),
		numPrimary:   m.primary.Len(),
		numSecondary: m.secondary.Len(),
	}
	mb := radix.NewMultibit[compiledValue]()
	m.primary.Walk(func(p netutil.Prefix, prov *Provenance) bool {
		c.prov[p] = prov
		c.kinds[p] = SourceBGP
		if p.Bits() > 0 {
			mb.InsertRanked(p, compiledValue{kind: SourceBGP}, compiledPrimaryBias+p.Bits())
		}
		return true
	})
	m.secondary.Walk(func(p netutil.Prefix, prov *Provenance) bool {
		if _, dup := c.prov[p]; !dup {
			c.prov[p] = prov
			c.kinds[p] = SourceNetworkDump
		}
		if p.Bits() > 0 {
			mb.InsertRanked(p, compiledValue{kind: SourceNetworkDump}, p.Bits())
		}
		return true
	})
	c.frozen = mb.Freeze()
	sp.SetAttrInt("prefixes", int64(c.Len()))
	sp.SetAttrInt("nodes", int64(c.frozen.NumNodes()))
	sp.End()
	compiledPrefixes.Set(int64(c.Len()))
	compiledNodes.Set(int64(c.frozen.NumNodes()))
	return c
}

// Lookup performs the clustering lookup for addr with the same semantics
// as Merged.Lookup — longest BGP match first, network-dump fallback, the
// bare default route treated as unclusterable — in a single table walk.
func (c *Compiled) Lookup(addr netutil.Addr) (Match, bool) {
	p, v, ok := c.frozen.Lookup(addr)
	if !ok {
		return Match{}, false
	}
	return Match{Prefix: p, Kind: v.kind}, true
}

// batchState holds a reusable entry-row buffer; a sync.Pool keeps it
// warm across LookupBatch calls so the caller-reuse path (dst with
// sufficient capacity) allocates nothing in steady state, even with
// many concurrent batch callers.
type batchState struct {
	rows []int32
}

var batchPool = sync.Pool{New: func() any { return new(batchState) }}

// LookupBatch is Lookup over a whole probe set: dst[i] is the match for
// addrs[i], with a zero Match (dst[i].Prefix.IsZero()) marking an
// unclusterable address — the zero value is unambiguous because the bare
// default route is never part of the match structure. Results are
// exactly what per-address Lookup returns; the win is throughput, not
// semantics: the radix kernel's packed-slot walk strips the per-level
// instruction overhead of the sequential loop (see
// radix.Frozen.LookupBatch). dst is reused when its capacity suffices,
// making steady-state batches allocation-free.
func (c *Compiled) LookupBatch(addrs []netutil.Addr, dst []Match) []Match {
	n := len(addrs)
	if cap(dst) < n {
		dst = make([]Match, n)
	} else {
		dst = dst[:n]
	}
	if n == 0 {
		return dst
	}
	st := batchPool.Get().(*batchState)
	st.rows = c.frozen.LookupBatch(addrs, st.rows)
	// Resolve rows against the entry tables directly: a generic method
	// call per row would cost more than the resolution itself, and the
	// loads skip bounds checks because the kernel only emits rows in
	// [-1, len(prefixes)) — see resolveRows.
	prefixes, values := c.frozen.Entries()
	resolveRows(st.rows, prefixes, values, dst)
	batchPool.Put(st)
	return dst
}

// resolveRows turns kernel entry rows into Matches. Row values come
// from radix.Frozen.LookupBatch, whose construction invariants
// (NewFrozen/Freeze validation) bound every non-negative row below
// len(prefixes) == len(values); that is what justifies the unchecked
// loads. A miss (-1) yields the zero Match.
func resolveRows(rows []int32, prefixes []netutil.Prefix, values []compiledValue, dst []Match) {
	if len(prefixes) == 0 {
		for i := range rows {
			dst[i] = Match{}
		}
		return
	}
	pp := unsafe.Pointer(&prefixes[0])
	vv := unsafe.Pointer(&values[0])
	for i, row := range rows {
		var m Match
		if row >= 0 {
			m.Prefix = *(*netutil.Prefix)(unsafe.Add(pp, uintptr(uint32(row))*unsafe.Sizeof(netutil.Prefix{})))
			m.Kind = (*(*compiledValue)(unsafe.Add(vv, uintptr(uint32(row))*unsafe.Sizeof(compiledValue{})))).kind
		}
		dst[i] = m
	}
}

// LookupDepth is Lookup plus the number of stride-8 levels the walk
// descended (1–4). The clustering layer samples it to feed the
// "bgp.lookup.depth" histogram; Lookup itself stays uninstrumented.
func (c *Compiled) LookupDepth(addr netutil.Addr) (Match, int, bool) {
	p, v, depth, ok := c.frozen.LookupDepth(addr)
	if !ok {
		return Match{}, depth, false
	}
	return Match{Prefix: p, Kind: v.kind}, depth, true
}

// Len returns the number of unique prefixes per class summed, mirroring
// Merged.Len at compile time.
func (c *Compiled) Len() int { return c.numPrimary + c.numSecondary }

// NumPrimary returns the number of BGP-derived prefixes at compile time.
func (c *Compiled) NumPrimary() int { return c.numPrimary }

// NumSecondary returns the number of network-dump prefixes at compile time.
func (c *Compiled) NumSecondary() int { return c.numSecondary }

// NumNodes exposes the live stride-8 node count, the compiled table's
// memory footprint knob (see radix.Frozen.NumNodes).
func (c *Compiled) NumNodes() int { return c.frozen.NumNodes() }
