package radix

import (
	"github.com/netaware/netcluster/internal/netutil"
)

// Multibit is a stride-8 longest-prefix-match table built with controlled
// prefix expansion: every prefix is expanded to the byte boundary above
// it, so a lookup is at most four array indexing steps with no bit
// twiddling. This is the classic trade hardware and software routers make
// against the path-compressed binary trie (Tree): considerably more
// memory, considerably faster lookups on wide tables. The clustering
// pipeline can use either engine; BenchmarkAblationTrieDesign quantifies
// the trade on this workload.
//
// Multibit is build-oriented: Insert and Lookup only. Routers rebuild
// expanded FIBs on change rather than editing them in place, and the
// clustering pipeline's merged tables are likewise write-once; use Tree
// when deletion is needed.
type Multibit[V any] struct {
	root mbNode[V]
	size int
	keys map[netutil.Prefix]struct{}
}

type mbEntry[V any] struct {
	prefix netutil.Prefix
	value  V
	rank   int16
}

type mbNode[V any] struct {
	children [256]*mbNode[V]
	// entries[b] is the longest prefix terminating within this node's
	// byte whose expansion covers slot b.
	entries [256]*mbEntry[V]
}

// NewMultibit returns an empty table.
func NewMultibit[V any]() *Multibit[V] {
	return &Multibit[V]{keys: make(map[netutil.Prefix]struct{})}
}

// Insert adds or replaces the value for prefix p. It reports whether the
// prefix was newly inserted.
func (m *Multibit[V]) Insert(p netutil.Prefix, v V) bool {
	return m.InsertRanked(p, v, p.Bits())
}

// InsertRanked is Insert with an explicit slot precedence: where expansions
// of two prefixes cover the same slot, the higher rank wins, ties by
// later insertion. Plain Insert uses rank = p.Bits(), which yields ordinary
// longest-prefix-match semantics; a caller that must fold several match
// classes into one table (see bgp.Compiled) encodes class precedence into
// the high bits of the rank so that a single walk resolves both the class
// and the length. rank must be in [0, 1<<14].
func (m *Multibit[V]) InsertRanked(p netutil.Prefix, v V, rank int) bool {
	if rank < 0 || rank > 1<<14 {
		panic("radix: InsertRanked rank out of range")
	}
	_, existed := m.keys[p]
	if !existed {
		m.keys[p] = struct{}{}
		m.size++
	}
	e := &mbEntry[V]{prefix: p, value: v, rank: int16(rank)}
	octets := p.Addr().Octets()
	bits := p.Bits()

	n := &m.root
	// Walk full bytes above the terminating level.
	fullBytes := bits / 8
	if bits%8 == 0 && bits > 0 {
		fullBytes-- // the final full byte is the terminating level
	}
	for i := 0; i < fullBytes; i++ {
		b := octets[i]
		if n.children[b] == nil {
			n.children[b] = &mbNode[V]{}
		}
		n = n.children[b]
	}
	// Expand the remaining bits within the terminating byte.
	rem := bits - fullBytes*8 // 0..8 significant bits in this byte
	if bits == 0 {
		rem = 0
	}
	base := 0
	if rem > 0 {
		base = int(octets[fullBytes]) & (0xFF << (8 - rem))
	}
	span := 1 << (8 - rem)
	for s := 0; s < span; s++ {
		slot := base + s
		cur := n.entries[slot]
		// Higher ranks win the slot; an equal rank within one node slot can
		// only be the same prefix again (the path plus the slot determine
		// every prefix bit), so <= implements replacement.
		if cur == nil || cur.rank <= e.rank {
			n.entries[slot] = e
		}
	}
	return !existed
}
