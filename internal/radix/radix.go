// Package radix implements a path-compressed binary trie (Patricia trie)
// over IPv4 prefixes, the longest-prefix-match engine at the heart of the
// clustering pipeline. It is the same structure IP routers use for
// forwarding lookups, which is exactly the semantics the paper requires:
// "perform the longest prefix matching (similar to what IP routers do) on
// each client IP address using the constructed prefix/netmask table".
//
// The trie is generic in its payload so the same structure serves the
// merged prefix/netmask table (payload: entry provenance), the clustering
// index (payload: cluster accumulator), and the ground-truth network map
// (payload: network metadata).
package radix

import (
	"github.com/netaware/netcluster/internal/netutil"
)

// node is a path-compressed trie node. Every node corresponds to a prefix;
// internal nodes created purely for branching carry hasValue == false.
type node[V any] struct {
	prefix   netutil.Prefix
	left     *node[V] // next bit 0
	right    *node[V] // next bit 1
	value    V
	hasValue bool
}

// Tree is a longest-prefix-match table mapping prefixes to values of type V.
// The zero value is not usable; call New. Tree is not safe for concurrent
// mutation; concurrent lookups without writers are safe.
type Tree[V any] struct {
	root *node[V]
	size int
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	// The root always exists and represents 0.0.0.0/0 with no value, so
	// insertion logic never special-cases an empty tree.
	return &Tree[V]{root: &node[V]{prefix: netutil.PrefixFrom(0, 0)}}
}

// Len returns the number of prefixes with values in the tree.
func (t *Tree[V]) Len() int { return t.size }

// bitAt returns bit i (0 = most significant) of a.
func bitAt(a netutil.Addr, i int) int {
	return int(a>>(31-uint(i))) & 1
}

// commonPrefixLen returns the length of the longest common prefix of a and
// b, capped at max.
func commonPrefixLen(a, b netutil.Addr, max int) int {
	x := uint32(a ^ b)
	n := 0
	for n < max && x&0x8000_0000 == 0 {
		n++
		x <<= 1
	}
	return n
}

// Insert adds or replaces the value for prefix p. It reports whether the
// prefix was newly inserted (true) or replaced an existing value (false).
func (t *Tree[V]) Insert(p netutil.Prefix, v V) bool {
	n := t.root
	for {
		if n.prefix == p {
			added := !n.hasValue
			n.value, n.hasValue = v, true
			if added {
				t.size++
			}
			return added
		}
		// Invariant: n.prefix contains p strictly (n is shorter).
		bit := bitAt(p.Addr(), n.prefix.Bits())
		child := n.left
		if bit == 1 {
			child = n.right
		}
		if child == nil {
			t.setChild(n, bit, &node[V]{prefix: p, value: v, hasValue: true})
			t.size++
			return true
		}
		if child.prefix.ContainsPrefix(p) {
			n = child
			continue
		}
		if p.ContainsPrefix(child.prefix) {
			// p sits between n and child: splice a new node in.
			nn := &node[V]{prefix: p, value: v, hasValue: true}
			t.setChild(nn, bitAt(child.prefix.Addr(), p.Bits()), child)
			t.setChild(n, bit, nn)
			t.size++
			return true
		}
		// p and child diverge below n: create a branching node at their
		// longest common prefix.
		limit := child.prefix.Bits()
		if p.Bits() < limit {
			limit = p.Bits()
		}
		cl := commonPrefixLen(p.Addr(), child.prefix.Addr(), limit)
		branch := &node[V]{prefix: netutil.PrefixFrom(p.Addr(), cl)}
		t.setChild(branch, bitAt(p.Addr(), cl), &node[V]{prefix: p, value: v, hasValue: true})
		t.setChild(branch, bitAt(child.prefix.Addr(), cl), child)
		t.setChild(n, bit, branch)
		t.size++
		return true
	}
}

func (t *Tree[V]) setChild(n *node[V], bit int, c *node[V]) {
	if bit == 0 {
		n.left = c
	} else {
		n.right = c
	}
}

// Lookup performs a longest-prefix match for addr, returning the most
// specific stored prefix containing addr, its value, and whether any
// stored prefix matched.
func (t *Tree[V]) Lookup(addr netutil.Addr) (netutil.Prefix, V, bool) {
	var (
		bestP netutil.Prefix
		bestV V
		found bool
		n     = t.root
	)
	for n != nil && n.prefix.Contains(addr) {
		if n.hasValue {
			bestP, bestV, found = n.prefix, n.value, true
		}
		if n.prefix.Bits() == 32 {
			break
		}
		if bitAt(addr, n.prefix.Bits()) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	return bestP, bestV, found
}

// Get returns the value stored for exactly p.
func (t *Tree[V]) Get(p netutil.Prefix) (V, bool) {
	n := t.root
	for n != nil && n.prefix.ContainsPrefix(p) {
		if n.prefix == p {
			if n.hasValue {
				return n.value, true
			}
			break
		}
		if bitAt(p.Addr(), n.prefix.Bits()) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	var zero V
	return zero, false
}

// Walk visits every stored (prefix, value) pair in ascending prefix order
// (base address, then length). Returning false from fn stops the walk.
func (t *Tree[V]) Walk(fn func(p netutil.Prefix, v V) bool) {
	t.walk(t.root, fn)
}

func (t *Tree[V]) walk(n *node[V], fn func(netutil.Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.hasValue && !fn(n.prefix, n.value) {
		return false
	}
	return t.walk(n.left, fn) && t.walk(n.right, fn)
}
