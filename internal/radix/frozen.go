package radix

import (
	"sync"

	"github.com/netaware/netcluster/internal/netutil"
)

// Frozen is the read-only, flattened form of a Multibit: the pointer-linked
// stride-8 nodes are compacted into two flat int32 arrays (child index and
// entry index per slot) plus parallel entry tables. A lookup is at most
// four pairs of array loads with no pointer chasing, the node blocks are
// contiguous so the hot top of the table stays in cache, and the structure
// is immutable after Freeze — safe for unlimited concurrent readers with
// zero synchronization. This is the FIB-style "compiled" representation
// the clustering engine uses for million-client logs; keep the Multibit
// (or Tree) form when the table still changes.
type Frozen[V any] struct {
	// children[n*256+b] is the index of node n's child for byte b, or 0 for
	// none (block 0 is always a root, which is never anyone's child).
	children []int32
	// slots[n*256+b] indexes the entry tables, or -1 for an empty slot.
	slots    []int32
	prefixes []netutil.Prefix
	ranks    []int16
	values   []V
	size     int
	// root is the root's block: 0 for Multibit.Freeze and NewFrozen
	// tables, wherever the last path copy put it for a Dynamic
	// generation, whose arrays may also hold blocks unreachable from it.
	root int32
	// nodes counts the blocks reachable from root.
	nodes int
	// packed is the batch kernel's derived slot array — see
	// frozen_batch.go. Dynamic.Freeze renders it with the blocks;
	// otherwise it is built lazily on the first LookupBatch (packOnce
	// publishes it to concurrent callers) and nil until then, so
	// sequential lookups and snapshot loads never pay for it.
	packOnce sync.Once
	packed   []int64
}

// Freeze flattens the table. The Multibit remains usable; the Frozen form
// holds no references into it beyond the stored values.
func (m *Multibit[V]) Freeze() *Frozen[V] {
	f := &Frozen[V]{size: m.size}
	entryIdx := make(map[*mbEntry[V]]int32)
	// Breadth-first over the node graph; node i's slot block is appended
	// while processing i, and children discovered there receive indexes
	// greater than i.
	nodes := []*mbNode[V]{&m.root}
	for i := 0; i < len(nodes); i++ {
		n := nodes[i]
		for b := 0; b < 256; b++ {
			ei := int32(-1)
			if e := n.entries[b]; e != nil {
				idx, ok := entryIdx[e]
				if !ok {
					idx = int32(len(f.prefixes))
					entryIdx[e] = idx
					f.prefixes = append(f.prefixes, e.prefix)
					f.ranks = append(f.ranks, e.rank)
					f.values = append(f.values, e.value)
				}
				ei = idx
			}
			f.slots = append(f.slots, ei)
			ci := int32(0)
			if c := n.children[b]; c != nil {
				nodes = append(nodes, c)
				ci = int32(len(nodes) - 1)
			}
			f.children = append(f.children, ci)
		}
	}
	f.nodes = len(nodes)
	return f
}

// NumNodes returns the number of stride-8 nodes reachable from the root,
// a direct proxy for the table's memory footprint: each node is 2 KiB of
// children and slots plus 2 KiB of packed words once the batch kernel
// has them.
func (f *Frozen[V]) NumNodes() int { return f.nodes }

// Lookup returns the highest-ranked stored prefix containing addr — the
// longest match under Insert's rank = bits convention.
func (f *Frozen[V]) Lookup(addr netutil.Addr) (netutil.Prefix, V, bool) {
	a := uint32(addr)
	best := int32(-1)
	bestRank := int16(-1)
	node := f.root
	for shift := 24; ; shift -= 8 {
		i := int(node)<<8 + int(a>>uint(shift))&0xFF
		if e := f.slots[i]; e >= 0 && f.ranks[e] >= bestRank {
			best, bestRank = e, f.ranks[e]
		}
		node = f.children[i]
		if node == 0 || shift == 0 {
			break
		}
	}
	if best < 0 {
		var zero V
		return netutil.Prefix{}, zero, false
	}
	return f.prefixes[best], f.values[best], true
}

// LookupDepth is Lookup instrumented: it additionally reports how many
// stride-8 levels the walk descended (1–4). The clustering engines
// sample it to populate the lookup-depth histogram without taxing the
// plain Lookup hot path.
func (f *Frozen[V]) LookupDepth(addr netutil.Addr) (netutil.Prefix, V, int, bool) {
	a := uint32(addr)
	best := int32(-1)
	bestRank := int16(-1)
	node := f.root
	depth := 0
	for shift := 24; ; shift -= 8 {
		depth++
		i := int(node)<<8 + int(a>>uint(shift))&0xFF
		if e := f.slots[i]; e >= 0 && f.ranks[e] >= bestRank {
			best, bestRank = e, f.ranks[e]
		}
		node = f.children[i]
		if node == 0 || shift == 0 {
			break
		}
	}
	if best < 0 {
		var zero V
		return netutil.Prefix{}, zero, depth, false
	}
	return f.prefixes[best], f.values[best], depth, true
}
