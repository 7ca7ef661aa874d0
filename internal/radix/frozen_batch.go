package radix

import (
	"fmt"
	"unsafe"

	"github.com/netaware/netcluster/internal/netutil"
)

// Batch lookup kernel. A single Lookup spends most of its time not on
// memory — the hot top of a compiled table lives in cache — but on
// instruction overhead: per level it loads a slot, tests entry presence,
// loads the entry's rank through a dependent index, compares ranks, and
// branches, with bounds checks on every array access. LookupBatch
// removes that overhead instead of restructuring memory traffic:
//
//   - the "entry present && rank >= best" rule collapses to one integer
//     max over a derived packed array: packed[i] = (rank+1)<<32 | row
//     for an occupied slot, -1 for an empty one. Because biased ranks
//     are nonnegative and the comparison is rank-major, `if s > best`
//     selects exactly the entry the sequential rule selects (equal
//     ranks imply equal prefix lengths imply the same slot, so ties
//     between distinct entries cannot arise on one walk). The dependent
//     ranks[e] load, the presence test, and the two-way update all
//     disappear; the winning row is recovered as int32(best), which is
//     also -1 on a miss;
//   - the four-level walk is unrolled with an early exit on a missing
//     child, so typical probes (depth 1-2 in real BGP tables) retire a
//     fraction of the full walk's instructions;
//   - slot and child loads go through unsafe pointers, eliding bounds
//     checks the construction invariants already guarantee: root and
//     every child index c written by a freeze or validated by NewFrozen
//     are < L, the array's block count, so c<<8|byte < L*256 =
//     len(packed) = len(children).
//
// packed is derived state. A Dynamic generation is born with it (the
// writer renders it with the blocks, so no reader builds it after a
// swap); Multibit.Freeze and NewFrozen tables build it lazily on first
// use (sync.Once), so loading a snapshot pays nothing for it until
// batches actually run. The sequential Lookup path keeps its identical,
// packed-free walk either way.

// growRows returns dst resized to n, reusing its backing array when the
// capacity allows — the zero-allocation reuse path.
func growRows(dst []int32, n int) []int32 {
	if cap(dst) < n {
		return make([]int32, n)
	}
	return dst[:n]
}

// buildPacked derives the packed slot array from slots and ranks. The
// +1 bias keeps every packable rank's word nonnegative: InsertRanked
// only admits ranks in [0, 1<<14], and for arrays assembled by
// NewFrozen from external data any negative rank loses every sequential
// comparison against the initial bestRank of -1 exactly as a -1
// (empty) packed word loses every max.
func (f *Frozen[V]) buildPacked() {
	packed := make([]int64, len(f.slots))
	for i, e := range f.slots {
		if e >= 0 && f.ranks[e] >= 0 {
			packed[i] = (int64(f.ranks[e])+1)<<32 | int64(uint32(e))
		} else {
			packed[i] = -1
		}
	}
	f.packed = packed
}

// LookupBatch resolves every address in addrs to its winning entry row
// (-1 for no match), writing into dst (reused when capacity allows) and
// returning it. Row i corresponds to addrs[i]; resolve rows to prefixes
// and values with Entry. Results are identical to per-probe Lookup,
// including the rank tie rule. The first call on a Multibit or NewFrozen
// table builds the packed slot array; every other call allocates nothing
// beyond dst reuse.
func (f *Frozen[V]) LookupBatch(addrs []netutil.Addr, dst []int32) []int32 {
	n := len(addrs)
	dst = growRows(dst, n)
	if n == 0 {
		return dst
	}
	f.packOnce.Do(f.buildPacked)
	packed, children := f.packed, f.children
	if len(packed) == 0 || len(packed) != len(children) {
		// Unreachable for a Frozen built by Freeze or NewFrozen; guards
		// the unsafe loads below against a zero-value receiver.
		for i := range dst {
			dst[i] = -1
		}
		return dst
	}
	pk := unsafe.Pointer(&packed[0])
	ch := unsafe.Pointer(&children[0])
	root := uintptr(f.root) << 8
	for k, addr := range addrs {
		a := uint32(addr)
		i := root | uintptr(a>>24)
		best := *(*int64)(unsafe.Add(pk, i*8))
		if c := *(*int32)(unsafe.Add(ch, i*4)); c != 0 {
			i = uintptr(c)<<8 | uintptr(a>>16&0xFF)
			if s := *(*int64)(unsafe.Add(pk, i*8)); s > best {
				best = s
			}
			if c = *(*int32)(unsafe.Add(ch, i*4)); c != 0 {
				i = uintptr(c)<<8 | uintptr(a>>8&0xFF)
				if s := *(*int64)(unsafe.Add(pk, i*8)); s > best {
					best = s
				}
				if c = *(*int32)(unsafe.Add(ch, i*4)); c != 0 {
					i = uintptr(c)<<8 | uintptr(a&0xFF)
					if s := *(*int64)(unsafe.Add(pk, i*8)); s > best {
						best = s
					}
				}
			}
		}
		// best is either -1 (all levels empty) or a packed word whose low
		// half is the row; int32 truncation yields the row or -1.
		dst[k] = int32(best)
	}
	return dst
}

// Entries returns the entry tables LookupBatch's rows index. Unlike Raw
// it never copies, so a per-batch row resolver can call it.
func (f *Frozen[V]) Entries() (prefixes []netutil.Prefix, values []V) {
	return f.prefixes, f.values
}

// Raw exposes f in the canonical flat layout NewFrozen accepts and the
// snapshot codec writes (see internal/bgp): children and slots in
// 256-slot blocks per node, root at block 0, the other nodes in
// breadth-first order, plus the parallel entry tables and the live
// prefix count. Multibit and NewFrozen tables already have that layout
// and are returned without copying; a path-copied Dynamic generation is
// rewritten into fresh arrays, its unreachable blocks dropped. The
// returned slices may be the live arrays: callers must treat them as
// read-only.
func (f *Frozen[V]) Raw() (children, slots []int32, prefixes []netutil.Prefix, ranks []int16, values []V, size int) {
	children, slots = f.children, f.slots
	if f.root != 0 || len(slots) != f.nodes*256 {
		children, slots = f.canonical()
	}
	return children, slots, f.prefixes, f.ranks, f.values, f.size
}

// canonical copies the blocks reachable from root breadth-first, the
// order Multibit.Freeze assigns.
func (f *Frozen[V]) canonical() (children, slots []int32) {
	dst := blockArena{children: make([]int32, f.nodes*256), slots: make([]int32, f.nodes*256)}
	copyCanonical(dst, blockArena{children: f.children, slots: f.slots}, f.root, f.nodes)
	return dst.children, dst.slots
}

// NewFrozen assembles a Frozen directly from flat arrays — the snapshot
// loader's constructor. It validates the structural invariants every
// walk depends on (block-aligned arrays, child and slot indices in
// range, root present, acyclic child links by construction of the
// forward-only index rule), so a table loaded from a corrupt or
// truncated file fails here instead of panicking in a lookup.
//
// The arrays are retained, not copied: a caller mapping them from a file
// must keep the mapping alive for the lifetime of the Frozen.
func NewFrozen[V any](children, slots []int32, prefixes []netutil.Prefix, ranks []int16, values []V, size int) (*Frozen[V], error) {
	if len(children) != len(slots) {
		return nil, fmt.Errorf("children/slots length mismatch: %d vs %d", len(children), len(slots))
	}
	if len(children) == 0 || len(children)%256 != 0 {
		return nil, fmt.Errorf("node arrays must be a positive multiple of 256 slots, got %d", len(children))
	}
	if len(prefixes) != len(ranks) || len(prefixes) != len(values) {
		return nil, fmt.Errorf("entry tables disagree: %d prefixes, %d ranks, %d values",
			len(prefixes), len(ranks), len(values))
	}
	// size is the distinct-prefix count, carried independently of the
	// entry rows: a fully shadowed prefix occupies no row, so size may
	// legitimately exceed len(prefixes).
	if size < 0 {
		return nil, fmt.Errorf("negative size %d", size)
	}
	numNodes := int32(len(children) / 256)
	nRows := int32(len(prefixes))
	for i, c := range children {
		// Children must point forward (BFS order) — node n's children all
		// have indexes > n — which also guarantees the walk terminates.
		if c != 0 && (c <= int32(i>>8) || c >= numNodes) {
			return nil, fmt.Errorf("slot %d: child index %d out of range (nodes %d)", i, c, numNodes)
		}
	}
	for i, e := range slots {
		if e < -1 || e >= nRows {
			return nil, fmt.Errorf("slot %d: entry row %d out of range (rows %d)", i, e, nRows)
		}
	}
	return &Frozen[V]{
		children: children,
		slots:    slots,
		prefixes: prefixes,
		ranks:    ranks,
		values:   values,
		size:     size,
		nodes:    int(numNodes),
	}, nil
}
