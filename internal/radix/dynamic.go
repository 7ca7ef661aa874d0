package radix

import (
	"github.com/netaware/netcluster/internal/netutil"
)

// Dynamic is the churn-capable sibling of Multibit: the same stride-8
// controlled-prefix-expansion layout, extended with removal and an
// incremental Freeze. It exists so a long-running service can absorb
// BGP announce/withdraw deltas without rebuilding the whole table:
//
//   - InsertRanked and Remove edit only the slot block of the node the
//     prefix terminates in (expansion never crosses a stride boundary,
//     so both operations are node-local), and mark that node and its
//     ancestors dirty;
//   - Freeze path-copies: it renders every dirty node into a fresh block
//     appended to a block arena shared by every generation, deepest
//     first so a parent renders its children's new block indices, and
//     publishes (arena[:L], root block). Untouched subtrees are shared
//     with earlier generations and published blocks are never written,
//     so a freeze costs the dirty paths, not the table.
//
// When a freeze would outgrow the arena's capacity, it renders every
// node into a fresh arena of twice the node count instead (the full
// cost, paid once per that many dirty blocks); generations published
// before keep the old arena alive for as long as they are held.
//
// Entry identity is stable across freezes: every entry keeps its row in
// the shared, append-only entry arena. Removed entries leave dead rows
// and emptied nodes stay linked — the price of never moving a published
// row. The caller watches DeadEntries and rebuilds from source when the
// garbage fraction crosses its threshold (see bgp.Incremental), exactly
// as long-running routers periodically recompact their FIBs.
//
// Keys are (prefix, rank) pairs, not bare prefixes: the bgp compiler
// stores one prefix under two ranks when it appears in both source
// classes, and a withdrawal must be able to remove one class's entry
// while the other survives.
//
// Dynamic is single-writer. The *Frozen values Freeze returns are
// immutable and safe for unlimited concurrent readers, including readers
// still holding earlier generations — the RCU pattern internal/churn
// builds on.
type Dynamic[V any] struct {
	root     *dynNode[V]
	numNodes int
	keys     map[dynKey]*dynEntry[V]

	// dirty[depth] lists the nodes at that depth whose block the next
	// freeze re-renders. A dirty node's ancestors are always dirty too.
	dirty [4][]*dynNode[V]

	// The entry arena: append-only rows shared by every Frozen generation.
	// Rows of removed entries become garbage but are never reused, so a
	// published generation can keep reading them.
	prefixes []netutil.Prefix
	ranks    []int16
	values   []V

	// The block arena: 256 children, slots and packed words per block,
	// appended past the published length and never written below it.
	children []int32
	slots    []int32
	packed   []int64

	deadEntries int
}

type dynKey struct {
	prefix netutil.Prefix
	rank   int16
}

type dynEntry[V any] struct {
	prefix netutil.Prefix
	value  V
	rank   int16
	// row is the entry's index in the arena, or -1 until first frozen.
	row int32
}

type dynNode[V any] struct {
	parent *dynNode[V]
	depth  uint8
	dirty  bool
	// block is the node's block in the current arena, -1 before its
	// first render.
	block    int32
	children [256]*dynNode[V]
	entries  [256]*dynEntry[V]
	// terminals holds every live entry whose prefix terminates in this
	// node's byte — the set a Remove re-renders slots from.
	terminals map[dynKey]*dynEntry[V]
}

// NewDynamic returns an empty table.
func NewDynamic[V any]() *Dynamic[V] {
	return &Dynamic[V]{
		root:     &dynNode[V]{block: -1},
		numNodes: 1,
		keys:     make(map[dynKey]*dynEntry[V]),
	}
}

// Len returns the number of live (prefix, rank) keys.
func (d *Dynamic[V]) Len() int { return len(d.keys) }

// NumNodes returns the number of stride-8 nodes, including nodes emptied
// by removals (they stay linked).
func (d *Dynamic[V]) NumNodes() int { return d.numNodes }

// DeadEntries returns the number of arena rows orphaned by removals and
// replacements since construction — the caller's compaction signal.
func (d *Dynamic[V]) DeadEntries() int { return d.deadEntries }

// better is the deterministic total order on slot occupancy: higher rank
// wins, ties broken by longer prefix, then by prefix comparison. Insert
// and the Remove re-render use the same order, so an incremental build
// and a from-scratch build of the same key set render identical tables.
func better[V any](a, b *dynEntry[V]) bool {
	if a.rank != b.rank {
		return a.rank > b.rank
	}
	if a.prefix.Bits() != b.prefix.Bits() {
		return a.prefix.Bits() > b.prefix.Bits()
	}
	return netutil.ComparePrefix(a.prefix, b.prefix) < 0
}

// expansion returns the slot span prefix p covers in its terminating
// node: base is the first slot, span the number of consecutive slots.
func expansion(p netutil.Prefix) (fullBytes, base, span int) {
	bits := p.Bits()
	fullBytes = bits / 8
	if bits%8 == 0 && bits > 0 {
		fullBytes--
	}
	rem := bits - fullBytes*8
	if bits == 0 {
		rem = 0
	}
	if rem > 0 {
		base = int(p.Addr().Octets()[fullBytes]) & (0xFF << (8 - rem))
	}
	span = 1 << (8 - rem)
	return fullBytes, base, span
}

// InsertRanked adds or replaces the value for (p, rank). It reports
// whether the key was newly inserted. rank must be in [0, 1<<14], as in
// Multibit.InsertRanked.
func (d *Dynamic[V]) InsertRanked(p netutil.Prefix, v V, rank int) bool {
	if rank < 0 || rank > 1<<14 {
		panic("radix: InsertRanked rank out of range")
	}
	key := dynKey{prefix: p, rank: int16(rank)}
	old, existed := d.keys[key]
	e := &dynEntry[V]{prefix: p, value: v, rank: int16(rank), row: -1}
	d.keys[key] = e

	fullBytes, base, span := expansion(p)
	octets := p.Addr().Octets()
	n := d.root
	for i := 0; i < fullBytes; i++ {
		b := octets[i]
		if n.children[b] == nil {
			child := &dynNode[V]{parent: n, depth: n.depth + 1, block: -1}
			n.children[b] = child
			d.numNodes++
			d.markDirty(child) // and n, whose block holds the child pointer
		}
		n = n.children[b]
	}
	if n.terminals == nil {
		n.terminals = make(map[dynKey]*dynEntry[V])
	}
	n.terminals[key] = e
	if existed {
		if old.row >= 0 {
			d.deadEntries++
		}
		// The old entry occupies exactly the slots the new one is about to
		// take (same key, same span, same order position), so the plain
		// render below replaces it everywhere it is visible.
	}
	changed := false
	for s := 0; s < span; s++ {
		slot := base + s
		cur := n.entries[slot]
		if cur == nil || (existed && cur == old) || better(e, cur) {
			n.entries[slot] = e
			changed = true
		}
	}
	if changed {
		d.markDirty(n)
	}
	return !existed
}

// Remove deletes the (p, rank) key, re-rendering the slots it covered
// from the terminating node's remaining entries. It reports whether the
// key was present.
func (d *Dynamic[V]) Remove(p netutil.Prefix, rank int) bool {
	key := dynKey{prefix: p, rank: int16(rank)}
	e, ok := d.keys[key]
	if !ok {
		return false
	}
	delete(d.keys, key)

	fullBytes, base, span := expansion(p)
	octets := p.Addr().Octets()
	n := d.root
	for i := 0; i < fullBytes; i++ {
		n = n.children[octets[i]] // the path exists: the key was inserted through it
	}
	delete(n.terminals, key)
	if e.row >= 0 {
		d.deadEntries++
	}
	changed := false
	for s := 0; s < span; s++ {
		slot := base + s
		if n.entries[slot] != e {
			continue // shadowed here by a better entry; nothing to restore
		}
		var best *dynEntry[V]
		for _, t := range n.terminals {
			if covers(t.prefix, slot) && (best == nil || better(t, best)) {
				best = t
			}
		}
		n.entries[slot] = best
		changed = true
	}
	if changed {
		d.markDirty(n)
	}
	return true
}

// covers reports whether prefix t's expansion includes slot within t's
// terminating node.
func covers(t netutil.Prefix, slot int) bool {
	_, base, span := expansion(t)
	return slot >= base && slot < base+span
}

// markDirty queues n and every ancestor not already queued: a node's new
// block changes the child index its parent renders, up to the root.
func (d *Dynamic[V]) markDirty(n *dynNode[V]) {
	for ; n != nil && !n.dirty; n = n.parent {
		n.dirty = true
		d.dirty[n.depth] = append(d.dirty[n.depth], n)
	}
}

// Freeze publishes the current table as an immutable Frozen: the dirty
// nodes path-copied into the shared block arena, or, when they do not
// fit its capacity (and on the first call), every node rendered into a
// fresh one. The batch kernel's packed words are rendered in the same
// pass, so no reader of the generation builds them. The returned Frozen
// shares the append-only entry and block arenas with the Dynamic; rows
// and blocks below its lengths are never mutated.
func (d *Dynamic[V]) Freeze() *Frozen[V] {
	need := 0
	for _, l := range d.dirty {
		need += len(l)
	}
	if len(d.children) == 0 || len(d.children)+need*256 > cap(d.children) {
		d.renderAll()
	} else {
		for depth := len(d.dirty) - 1; depth >= 0; depth-- {
			for _, n := range d.dirty[depth] {
				d.render(n)
			}
		}
	}
	for i := range d.dirty {
		clear(d.dirty[i])
		d.dirty[i] = d.dirty[i][:0]
	}

	nRows, nSlots := len(d.prefixes), len(d.children)
	f := &Frozen[V]{
		children: d.children[:nSlots:nSlots],
		slots:    d.slots[:nSlots:nSlots],
		packed:   d.packed[:nSlots:nSlots],
		prefixes: d.prefixes[:nRows:nRows],
		ranks:    d.ranks[:nRows:nRows],
		values:   d.values[:nRows:nRows],
		size:     len(d.keys),
		root:     d.root.block,
		nodes:    d.numNodes,
	}
	f.packOnce.Do(func() {}) // packed is already rendered
	return f
}

// renderAll renders every node, breadth-first from the root at block 0,
// into a fresh arena with room for as many path-copied blocks again.
// Breadth-first order makes the result the canonical layout Raw exports.
func (d *Dynamic[V]) renderAll() {
	capSlots := 2 * d.numNodes * 256
	d.children = make([]int32, 0, capSlots)
	d.slots = make([]int32, 0, capSlots)
	d.packed = make([]int64, 0, capSlots)
	order := make([]*dynNode[V], 1, d.numNodes)
	order[0] = d.root
	for i := 0; i < len(order); i++ {
		for _, c := range &order[i].children {
			if c != nil {
				c.block = int32(len(order)) // rendered at this position below
				order = append(order, c)
			}
		}
	}
	for _, n := range order {
		d.render(n)
	}
}

// render appends n's block to the arena — children by their current
// block, slots by entry row, packed words as in buildPacked — and moves
// n to it. First-rendered entries get their arena rows here.
func (d *Dynamic[V]) render(n *dynNode[V]) {
	off := len(d.children)
	d.children = d.children[:off+256]
	d.slots = d.slots[:off+256]
	d.packed = d.packed[:off+256]
	children := d.children[off : off+256]
	slots := d.slots[off : off+256]
	packed := d.packed[off : off+256]
	for b := 0; b < 256; b++ {
		ci := int32(0)
		if c := n.children[b]; c != nil {
			ci = c.block
		}
		children[b] = ci
		row, word := int32(-1), int64(-1)
		if e := n.entries[b]; e != nil {
			if e.row < 0 {
				e.row = int32(len(d.prefixes))
				d.prefixes = append(d.prefixes, e.prefix)
				d.ranks = append(d.ranks, e.rank)
				d.values = append(d.values, e.value)
			}
			row = e.row
			word = (int64(e.rank)+1)<<32 | int64(uint32(row))
		}
		slots[b] = row
		packed[b] = word
	}
	n.block = int32(off / 256)
	n.dirty = false
}

// Walk visits every live (prefix, rank, value) triple in unspecified
// order; fn returning false stops the walk. Compaction rebuilds use it
// to re-seed a fresh Dynamic.
func (d *Dynamic[V]) Walk(fn func(p netutil.Prefix, rank int, v V) bool) {
	for k, e := range d.keys {
		if !fn(k.prefix, int(k.rank), e.value) {
			return
		}
	}
}
