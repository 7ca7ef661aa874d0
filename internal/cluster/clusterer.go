// Package cluster implements the paper's primary contribution: grouping
// web-client IP addresses into clusters — sets of clients that are
// topologically close and likely under common administrative control.
//
// Three cluster identification methods are provided:
//
//   - NetworkAware (the paper's method, Section 3.2): longest-prefix match
//     of each client address against a merged BGP prefix/netmask table;
//     clients with the same longest matched prefix form one cluster.
//   - Simple (the Section 2 baseline): clients sharing the first 24 bits
//     form a cluster, i.e. an assumed /24 everywhere.
//   - Classful (the alternate baseline of Section 2): clusters are the
//     address-class networks — /8 for Class A, /16 for B, /24 for C.
package cluster

import (
	"sync"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
)

// Clusterer assigns a client address to the prefix identifying its
// cluster. ok is false when the method cannot cluster the address (for the
// network-aware method: no prefix in the table covers it).
type Clusterer interface {
	Cluster(addr netutil.Addr) (prefix netutil.Prefix, ok bool)
	Name() string
}

// NetworkAware clusters through a merged routing table. When Compiled is
// set it is used transparently for every lookup — same matches, same
// source-class accounting, one flat-array walk instead of two tree walks,
// and safe for the parallel clustering engines' concurrent readers.
type NetworkAware struct {
	Table    *bgp.Merged
	Compiled *bgp.Compiled
}

// Compile returns a copy of n backed by a freshly compiled snapshot of its
// table, the read-optimized form for clustering large logs.
func (n NetworkAware) Compile() NetworkAware {
	n.Compiled = n.Table.Compile()
	return n
}

// Cluster performs the longest-prefix match, preferring BGP-derived
// prefixes over registry dumps (see bgp.Merged.Lookup). Each call counts
// toward "bgp.lookup.count" — one atomic add, amortized per distinct
// client because the clustering engines memoize per-client results —
// and every 64th call runs the depth-reporting walk to feed the
// "bgp.lookup.depth" histogram.
func (n NetworkAware) Cluster(addr netutil.Addr) (netutil.Prefix, bool) {
	if n.Compiled != nil {
		if lookupCount.Inc()&depthSampleMask == 0 {
			m, depth, ok := n.Compiled.LookupDepth(addr)
			lookupDepth.Observe(int64(depth))
			if !ok {
				lookupMiss.Inc()
			}
			return m.Prefix, ok
		}
		m, ok := n.Compiled.Lookup(addr)
		if !ok {
			lookupMiss.Inc()
		}
		return m.Prefix, ok
	}
	lookupCount.Inc()
	m, ok := n.Table.Lookup(addr)
	if !ok {
		lookupMiss.Inc()
	}
	return m.Prefix, ok
}

// matchBufPool recycles the []bgp.Match staging buffer across
// ClusterBatch calls, keeping the batch path allocation-free in steady
// state even with many concurrent engine workers.
var matchBufPool = sync.Pool{New: func() any { return new([]bgp.Match) }}

// ClusterBatch resolves addrs[i] into prefixes[i], ok[i] (equal-length
// slices) with the same answers as Cluster: one batched table walk for the
// whole probe set, with the same observability semantics as per-address
// Cluster — every address counts toward "bgp.lookup.count", misses
// toward "bgp.lookup.nomatch", and exactly the lookups whose global
// sequence number crosses a 64-boundary re-run the depth-reporting walk,
// so the 1-in-64 "bgp.lookup.depth" sampling rate survives batching.
// Without a compiled table it degrades to the per-address path.
func (n NetworkAware) ClusterBatch(addrs []netutil.Addr, prefixes []netutil.Prefix, ok []bool) {
	if n.Compiled == nil {
		for i, a := range addrs {
			prefixes[i], ok[i] = n.Cluster(a)
		}
		return
	}
	if len(addrs) == 0 {
		return
	}
	buf := matchBufPool.Get().(*[]bgp.Match)
	*buf = n.Compiled.LookupBatch(addrs, *buf)
	miss := 0
	for i, m := range *buf {
		if m.Prefix.IsZero() {
			prefixes[i] = netutil.Prefix{}
			ok[i] = false
			miss++
			continue
		}
		prefixes[i] = m.Prefix
		ok[i] = true
	}
	matchBufPool.Put(buf)
	base := lookupCount.Add(uint64(len(addrs)))
	if miss > 0 {
		lookupMiss.Add(uint64(miss))
	}
	// Depth sampling: Cluster samples whenever the running lookup count
	// hits a multiple of depthSampleMask+1; replay that rule over the
	// count interval this batch just claimed.
	prev := base - uint64(len(addrs))
	for k := (prev/(depthSampleMask+1) + 1) * (depthSampleMask + 1); k <= base; k += depthSampleMask + 1 {
		_, depth, _ := n.Compiled.LookupDepth(addrs[k-prev-1])
		lookupDepth.Observe(int64(depth))
	}
}

// Name implements Clusterer.
func (NetworkAware) Name() string { return "network-aware" }

// SourceOf reports which source class supplied the cluster prefix for
// addr, for the "<1% via network dumps" accounting.
func (n NetworkAware) SourceOf(addr netutil.Addr) (bgp.SourceKind, bool) {
	if n.Compiled != nil {
		m, ok := n.Compiled.Lookup(addr)
		return m.Kind, ok
	}
	m, ok := n.Table.Lookup(addr)
	return m.Kind, ok
}

// Func adapts a closure to the Clusterer interface. The self-correction
// stage uses it to re-cluster a log under a corrected assignment.
type Func struct {
	Fn    func(netutil.Addr) (netutil.Prefix, bool)
	Label string
}

// Cluster implements Clusterer.
func (f Func) Cluster(addr netutil.Addr) (netutil.Prefix, bool) { return f.Fn(addr) }

// Name implements Clusterer.
func (f Func) Name() string { return f.Label }

// Simple is the first-24-bits baseline. It clusters every address.
type Simple struct{}

// Cluster implements Clusterer.
func (Simple) Cluster(addr netutil.Addr) (netutil.Prefix, bool) {
	return netutil.PrefixFrom(addr, 24), true
}

// Name implements Clusterer.
func (Simple) Name() string { return "simple" }

// Classful groups by address class: /8, /16 or /24 networks. Class D/E
// addresses (multicast/reserved) are not clusterable — they are not
// unicast client addresses, and assigning them a fake network would hide
// log corruption.
type Classful struct{}

// Cluster implements Clusterer.
func (Classful) Cluster(addr netutil.Addr) (netutil.Prefix, bool) {
	bits := addr.ClassfulPrefixLen()
	if bits == 32 {
		return netutil.Prefix{}, false
	}
	return netutil.PrefixFrom(addr, bits), true
}

// Name implements Clusterer.
func (Classful) Name() string { return "classful" }
