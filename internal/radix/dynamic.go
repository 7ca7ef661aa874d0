package radix

import (
	"math/bits"
	"time"

	"github.com/netaware/netcluster/internal/netutil"
)

// Dynamic is the churn-capable sibling of Multibit: the same stride-8
// controlled-prefix-expansion layout, extended with removal and an
// incremental Freeze. It exists so a long-running service can absorb
// BGP announce/withdraw deltas without rebuilding the whole table, and
// the writer's cost follows the slots a delta changes:
//
//   - InsertRanked and Remove edit only the slot block of the node the
//     prefix terminates in (expansion never crosses a stride boundary,
//     so both operations are node-local). Remove re-ranks just the
//     slots the removed entry vacated, in one pass over the node's
//     terminal entries, each clipped to the vacated span. Both mark the
//     slots they changed stale and the node and its ancestors dirty;
//   - Freeze path-copies. Deepest first, each dirty node moves to a
//     fresh block appended to a block arena shared by every generation:
//     one copy per column of its previous block, then a re-render of
//     its stale slots only. A moved child marks its slot in the parent
//     stale, so the parent renders the new index. Freeze publishes
//     (arena[:L], root block); untouched subtrees are shared with
//     earlier generations and published blocks are never written.
//
// A node with no block is all-stale: a new node, and every node at the
// first freeze. When a freeze would outgrow the arena's capacity, the
// full render moves every node into the next arena (room for twice the
// node count) at its breadth-first position, the order walking each
// node's 256-bit child mask. The next arena arrives ready: once path
// copies have used three quarters of the headroom, a goroutine allocates
// it, touches its pages and copies the generation just published into
// it in that layout. At the switch a node path-copied since then renders,
// by the same render, from its block in the old arena with its stale
// slots and child indexes re-derived (children render first); every
// other node is already in place. A node added since moves the others,
// so then every node renders. Generations published before keep the old
// arena alive for as long as they are held. On the benchmark's
// 1,965-node table (2 vCPUs, beside a reader) that took the median
// Apply that renders in full from 9.8 ms (2.1 ms allocating, 1.6 ms
// ordering, 5.4 ms re-deriving every slot) to 1.2 ms (0.7 ms rendering
// the ~380 nodes path-copied since the spare was filled, 0.2 ms
// ordering).
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

	// dirty[depth] lists the nodes at that depth the next freeze
	// path-copies. A dirty node's ancestors are always dirty too.
	dirty [4][]*dynNode[V]

	// The entry arena: append-only rows shared by every Frozen generation.
	// Rows of removed entries become garbage but are never reused, so a
	// published generation can keep reading them.
	prefixes []netutil.Prefix
	ranks    []int16
	values   []V

	// arena holds every block a published generation may read; blocks
	// are appended past the published length and never written below it.
	arena blockArena
	// spare delivers the next arena, allocated off the writer's path and
	// filled with the blocks of freeze number spareFreeze, which had
	// spareNodes nodes; nil when none is coming.
	spare       chan blockArena
	spareFreeze uint64
	spareNodes  int

	freezes     uint64
	fullRenders int
	spareWaits  int
	spareWait   time.Duration
	deadEntries int
}

// blockArena is the block store: 256 children, slots and packed words
// per block, in three parallel columns.
type blockArena struct {
	children []int32
	slots    []int32
	packed   []int64
}

// pageBytes is the page size newArena assumes when it touches pages.
const pageBytes = 4096

// newArena returns an empty arena with room for the given number of
// blocks, every page of it written once: whoever allocates an arena also
// takes its zeroing, GC assist and page faults, not the render that
// fills it.
func newArena(blocks int) blockArena {
	n := blocks * 256
	a := blockArena{
		children: make([]int32, n),
		slots:    make([]int32, n),
		packed:   make([]int64, n),
	}
	for i := 0; i < n; i += pageBytes / 4 {
		a.children[i] = 0
		a.slots[i] = 0
	}
	for i := 0; i < n; i += pageBytes / 8 {
		a.packed[i] = 0
	}
	a.resize(0)
	return a
}

// resize sets the arena's length to n slots, within its capacity.
func (a *blockArena) resize(n int) {
	a.children = a.children[:n]
	a.slots = a.slots[:n]
	a.packed = a.packed[:n]
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
	// term is the entry's index in its node's terminals.
	term int32
}

// slotMask holds one bit per slot of a node's block.
type slotMask [4]uint64

func (m *slotMask) set(b int)      { m[b>>6&3] |= 1 << (b & 63) }
func (m *slotMask) has(b int) bool { return m[b>>6&3]&(1<<(b&63)) != 0 }

var allSlots = slotMask{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

type dynNode[V any] struct {
	parent *dynNode[V]
	depth  uint8
	// slot is n's slot in its parent's block.
	slot  uint8
	dirty bool
	// block is the node's block in the current arena, or -1 before its
	// first render. During a full render it names the block in the old
	// arena until the node is reached.
	block int32
	// rendered is the number of the freeze that last rendered the node.
	rendered uint64
	// stale marks the slots whose child, row or packed word may differ
	// from block's — the only slots the next render re-derives.
	stale slotMask
	// kids marks the bytes with a child; children are never unlinked.
	kids     slotMask
	children [256]*dynNode[V]
	entries  [256]*dynEntry[V]
	// terminals holds every live entry whose prefix terminates in this
	// node's byte, in no order — the candidates a Remove re-ranks the
	// vacated slots from. Removal swaps the last one into the gap.
	terminals []dynTerm[V]
}

// dynTerm is a terminal entry with its expansion's slot range, so a
// Remove scanning for candidates reads the entry only where they meet.
type dynTerm[V any] struct {
	e         *dynEntry[V]
	base, end int // slots [base, end)
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
			// The new child has no block, so its render re-derives every
			// slot and marks its slot in n stale.
			child := &dynNode[V]{parent: n, depth: n.depth + 1, slot: b, block: -1}
			n.children[b] = child
			n.kids.set(int(b))
			d.numNodes++
			d.markDirty(child)
		}
		n = n.children[b]
	}
	if existed {
		// The old entry occupies exactly the slots the new one is about to
		// take (same key, same span, same order position), so the plain
		// render below replaces it everywhere it is visible.
		e.term = old.term
		n.terminals[e.term].e = e
		if old.row >= 0 {
			d.deadEntries++
		}
	} else {
		e.term = int32(len(n.terminals))
		n.terminals = append(n.terminals, dynTerm[V]{e, base, base + span})
	}
	changed := false
	for slot := base; slot < base+span; slot++ {
		if cur := n.entries[slot]; cur == nil || cur == old || better(e, cur) {
			n.entries[slot] = e
			n.stale.set(slot)
			changed = true
		}
	}
	if changed {
		d.markDirty(n)
	}
	return !existed
}

// Remove deletes the (p, rank) key and re-ranks the slots it vacated
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
	last := len(n.terminals) - 1
	n.terminals[last].e.term = e.term
	n.terminals[e.term] = n.terminals[last]
	n.terminals[last] = dynTerm[V]{}
	n.terminals = n.terminals[:last]
	if e.row >= 0 {
		d.deadEntries++
	}

	// e vacates only the slots it holds: a better entry shadows it in the
	// rest of its span, and where that is all of it nothing changes.
	var vacated slotMask
	for slot := base; slot < base+span; slot++ {
		if n.entries[slot] == e {
			n.entries[slot] = nil
			vacated.set(slot)
		}
	}
	if vacated == (slotMask{}) {
		return true
	}
	// Every candidate for a vacated slot terminates in n and covers the
	// slot, so one pass over the terminals, each clipped to e's span,
	// finds the best for all of them.
	for _, t := range n.terminals {
		for slot := max(base, t.base); slot < min(base+span, t.end); slot++ {
			if !vacated.has(slot) {
				continue
			}
			if cur := n.entries[slot]; cur == nil || better(t.e, cur) {
				n.entries[slot] = t.e
			}
		}
	}
	for w := range vacated {
		n.stale[w] |= vacated[w]
	}
	d.markDirty(n)
	return true
}

// markDirty queues n and every ancestor not already queued: a node's new
// block changes the child index its parent renders, up to the root.
func (d *Dynamic[V]) markDirty(n *dynNode[V]) {
	for ; n != nil && !n.dirty; n = n.parent {
		n.dirty = true
		d.dirty[n.depth] = append(d.dirty[n.depth], n)
	}
}

// FullRenders returns how many freezes rendered every node into a fresh
// arena, the first freeze included.
func (d *Dynamic[V]) FullRenders() int { return d.fullRenders }

// SpareWaits returns how many full renders found the spare arena still
// being filled and waited for it, and how long they waited in all.
func (d *Dynamic[V]) SpareWaits() (n int, total time.Duration) {
	return d.spareWaits, d.spareWait
}

// Freeze publishes the current table as an immutable Frozen: the dirty
// nodes path-copied into the shared block arena, or, when they do not
// fit its capacity (and on the first call), every node rendered into the
// next one. The batch kernel's packed words are rendered in the same
// pass, so no reader of the generation builds them. The returned Frozen
// shares the append-only entry and block arenas with the Dynamic; rows
// and blocks below its lengths are never mutated.
func (d *Dynamic[V]) Freeze() *Frozen[V] {
	d.freezes++
	if d.pathCopyFits() {
		at := int32(len(d.arena.children) / 256)
		d.arena.resize(len(d.arena.children) + d.numDirty()*256)
		for depth := len(d.dirty) - 1; depth >= 0; depth-- {
			for _, n := range d.dirty[depth] {
				d.render(n, at, d.arena)
				at++
			}
		}
	} else {
		d.renderAll()
	}
	for i := range d.dirty {
		clear(d.dirty[i])
		d.dirty[i] = d.dirty[i][:0]
	}
	nRows, nSlots := len(d.prefixes), len(d.arena.children)
	f := &Frozen[V]{
		children: d.arena.children[:nSlots:nSlots],
		slots:    d.arena.slots[:nSlots:nSlots],
		packed:   d.arena.packed[:nSlots:nSlots],
		prefixes: d.prefixes[:nRows:nRows],
		ranks:    d.ranks[:nRows:nRows],
		values:   d.values[:nRows:nRows],
		size:     len(d.keys),
		root:     d.root.block,
		nodes:    d.numNodes,
	}
	f.packOnce.Do(func() {}) // packed is already rendered

	// Once path copies have used three quarters of the headroom, the next
	// arena is allocated beside the writer and filled with this
	// generation's blocks in the full render's layout, so the full render
	// re-renders only the nodes path-copied after this one. An earlier
	// trigger leaves more of those; a later one leaves the spare less
	// time to arrive. The goroutine only reads published blocks, and it
	// ends on its one send, which the buffer always has room for, so
	// nothing waits for it.
	if d.spare == nil && 8*nSlots >= 7*cap(d.arena.children) {
		spare, blocks := make(chan blockArena, 1), 2*d.numNodes
		from, root, nodes := blockArena{f.children, f.slots, f.packed}, f.root, f.nodes
		go func() {
			next := newArena(blocks)
			next.resize(nodes * 256)
			copyCanonical(next, from, root, nodes)
			spare <- next
		}()
		d.spare, d.spareFreeze, d.spareNodes = spare, d.freezes, nodes
	}
	return f
}

func (d *Dynamic[V]) numDirty() int {
	n := 0
	for _, l := range d.dirty {
		n += len(l)
	}
	return n
}

// pathCopyFits reports whether the next freeze path-copies: the arena
// exists and has room for a new block per dirty node.
func (d *Dynamic[V]) pathCopyFits() bool {
	a := d.arena.children
	return len(a) > 0 && len(a)+d.numDirty()*256 <= cap(a)
}

// renderAll renders every node into the next arena, at its breadth-first
// position from the root at block 0 — the canonical layout Raw exports
// — leaving room for as many path-copied blocks again. The next arena is
// the spare when one is coming and it still holds the table with at
// least half that headroom (the table grew by at most a third since it
// was sized); otherwise it is allocated here. A spare still being
// filled is waited for, and the wait counted in SpareWaits. Nodes render in reverse
// order, which puts every child before its parent, each copying its
// block from the old arena and re-deriving its child indexes. When no
// node was added since the spare was filled, every node keeps the
// position it has there, and one not rendered since already has its
// block in place.
func (d *Dynamic[V]) renderAll() {
	var next blockArena
	filled := false
	if d.spare != nil {
		select {
		case next = <-d.spare:
		default: // the spare is still being filled: wait for it
			start := time.Now()
			next = <-d.spare
			d.spareWaits++
			d.spareWait += time.Since(start)
		}
		d.spare = nil
		filled = d.numNodes == d.spareNodes
	}
	if 2*cap(next.children) < 3*d.numNodes*256 {
		next = newArena(2 * d.numNodes)
	}
	old := d.arena
	d.arena = next
	d.arena.resize(d.numNodes * 256)
	order := make([]*dynNode[V], 1, d.numNodes)
	order[0] = d.root
	for i := 0; i < len(order); i++ {
		n := order[i]
		for w, m := range n.kids {
			for ; m != 0; m &= m - 1 {
				order = append(order, n.children[w<<6|bits.TrailingZeros64(m)])
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if filled && !n.dirty && n.rendered <= d.spareFreeze {
			n.block = int32(i)
			continue
		}
		for w := range n.stale {
			n.stale[w] |= n.kids[w] // every child moved, rendered or not
		}
		d.render(n, int32(i), old)
	}
	d.fullRenders++
}

// render moves n to block at of the current arena and re-derives its
// stale slots there: the child's current block, the entry's row and its
// packed word (as in buildPacked). The other slots are copied from n's
// previous block in src — the current arena for a path copy, the old
// one for a full render — one copy per column; a node with no block has
// nothing to copy, so all its slots are stale. Entries rendered for the
// first time get their arena rows here, and n's slot in its parent goes
// stale, since it must point at the new block.
func (d *Dynamic[V]) render(n *dynNode[V], at int32, src blockArena) {
	off := int(at) * 256
	children := (*[256]int32)(d.arena.children[off:])
	slots := (*[256]int32)(d.arena.slots[off:])
	packed := (*[256]int64)(d.arena.packed[off:])
	if n.block < 0 {
		n.stale = allSlots
	} else {
		prev := int(n.block) * 256
		copy(children[:], src.children[prev:])
		copy(slots[:], src.slots[prev:])
		copy(packed[:], src.packed[prev:])
	}
	for w, m := range n.stale {
		for ; m != 0; m &= m - 1 {
			b := uint8(w<<6 | bits.TrailingZeros64(m))
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
	}
	n.stale = slotMask{}
	n.block = at
	n.rendered = d.freezes
	n.dirty = false
	if n.parent != nil {
		n.parent.stale.set(int(n.slot))
	}
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

// copyCanonical copies the blocks of src reachable from root into dst,
// breadth-first from block 0 with child indexes renumbered: the order
// Multibit.Freeze assigns and a full render renders. The packed column
// is copied when dst has one.
func copyCanonical(dst, src blockArena, root int32, nodes int) {
	order := make([]int32, 1, nodes)
	order[0] = root
	for i := 0; i < len(order); i++ {
		off, at := int(order[i])<<8, i<<8
		copy(dst.slots[at:at+256], src.slots[off:])
		if dst.packed != nil {
			copy(dst.packed[at:at+256], src.packed[off:])
		}
		for b, c := range src.children[off : off+256] {
			if c != 0 {
				order = append(order, c)
				c = int32(len(order) - 1)
			}
			dst.children[at+b] = c
		}
	}
}
