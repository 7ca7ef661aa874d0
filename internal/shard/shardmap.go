// Package shard turns the single-process clusterd service into a
// cluster of them: the paper's network-aware clusters partition the
// client address space, which makes the service embarrassingly shardable
// by prefix range. The package provides the three pieces a deployment
// needs:
//
//   - Map: a versioned prefix-range shard map assigning the 256 /8
//     blocks of the IPv4 space to N clusterd instances, served at
//     /shardmap so clients and operators can see the current layout;
//   - Feed/Follower: delta distribution — one elected compiler node
//     turns each churn step into a bgp.Delta, assigns it a sequence
//     number, and streams it to peers over HTTP, with
//     catch-up-from-snapshot on join, so every node's table generation
//     advances in lockstep;
//   - Router: a thin coordinator that fans batch /cluster requests out
//     per shard, merges results in input order, and degrades per shard
//     (partial results plus a Degradation error map) instead of failing
//     the whole batch when a node dies.
//
// Clients see the clusterd wire format (wire.go) on every component;
// router and nodes exchange the columnar batch frame (frame.go), which
// clusterd and the in-process NodeServer (harness.go) serve from one
// shared core (serve.go), so the router fronts either interchangeably.
package shard

import (
	"fmt"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
)

// Info describes one shard: which contiguous run of /8 blocks it owns
// and, in a deployed map, the base URL of the clusterd instance serving
// it. Block bounds are inclusive.
type Info struct {
	ID         int    `json:"id"`
	FirstBlock int    `json:"first_block"`
	LastBlock  int    `json:"last_block"`
	Addr       string `json:"addr,omitempty"`
}

// First returns the lowest address the shard owns.
func (s Info) First() netutil.Addr { return netutil.Addr(uint32(s.FirstBlock) << 24) }

// Last returns the highest address the shard owns.
func (s Info) Last() netutil.Addr { return netutil.Addr(uint32(s.LastBlock)<<24 | 0x00FF_FFFF) }

// Map is a versioned partition of the IPv4 address space into shards.
// Shards own contiguous /8 block ranges that together cover the whole
// space with no overlap; the Version lets clients detect a re-shard
// (every response naming a shard carries the map version it used).
type Map struct {
	Version uint64 `json:"version"`
	Shards  []Info `json:"shards"`

	// owner[b] is the shard index owning /8 block b; derived, not
	// serialized.
	owner [256]uint8
}

// NewMap partitions the address space into n shards of (near-)equal
// block counts: shard i owns blocks [i*256/n, (i+1)*256/n). n must be in
// [1, 256].
func NewMap(n int) *Map {
	if n < 1 || n > 256 {
		panic(fmt.Sprintf("shard: NewMap(%d): shard count out of range [1,256]", n))
	}
	m := &Map{Version: 1}
	for i := 0; i < n; i++ {
		m.Shards = append(m.Shards, Info{
			ID:         i,
			FirstBlock: i * 256 / n,
			LastBlock:  (i+1)*256/n - 1,
		})
	}
	m.index()
	return m
}

// index rebuilds the derived block→shard table.
func (m *Map) index() {
	for i, s := range m.Shards {
		for b := s.FirstBlock; b <= s.LastBlock; b++ {
			m.owner[b] = uint8(i)
		}
	}
}

// Validate checks the map invariants: ids are positional, block ranges
// are sane, and the shards tile the 256 blocks exactly. It also rebuilds
// the derived index, so a map decoded from JSON must be Validated before
// use.
func (m *Map) Validate() error {
	if len(m.Shards) == 0 || len(m.Shards) > 256 {
		return fmt.Errorf("shard map: %d shards, want 1..256", len(m.Shards))
	}
	next := 0
	for i, s := range m.Shards {
		if s.ID != i {
			return fmt.Errorf("shard map: shard %d has id %d, ids must be positional", i, s.ID)
		}
		if s.FirstBlock != next || s.LastBlock < s.FirstBlock || s.LastBlock > 255 {
			return fmt.Errorf("shard map: shard %d blocks [%d,%d], want to start at %d",
				i, s.FirstBlock, s.LastBlock, next)
		}
		next = s.LastBlock + 1
	}
	if next != 256 {
		return fmt.Errorf("shard map: shards cover blocks [0,%d), want [0,256)", next)
	}
	m.index()
	return nil
}

// NumShards returns the number of shards in the map.
func (m *Map) NumShards() int { return len(m.Shards) }

// ShardFor returns the shard owning addr — one table load off the top
// byte, cheap enough for per-probe routing.
func (m *Map) ShardFor(a netutil.Addr) int { return int(m.owner[a>>24]) }

// Overlaps reports whether prefix p covers any address the shard owns.
// A shard must hold every table prefix overlapping its range: a /6
// announce can span several /8 blocks, and the longest match for an
// owned address may be that spanning prefix.
func (m *Map) Overlaps(id int, p netutil.Prefix) bool {
	s := m.Shards[id]
	return p.First() <= s.Last() && p.Last() >= s.First()
}

// Keep returns the per-prefix retention predicate for one shard — the
// filter a shard node applies to its boot snapshot and to every streamed
// delta. The default route (/0) is kept everywhere: it never matches,
// but its provenance row travels with the table.
func (m *Map) Keep(id int) func(netutil.Prefix) bool {
	return func(p netutil.Prefix) bool { return m.Overlaps(id, p) }
}

// FilterDelta restricts d to the ops whose prefix keep accepts. The
// result shares d's op backing only when everything is kept; sequence
// accounting is the caller's (a filtered-to-empty delta still advances
// the shard's generation, keeping the cluster in lockstep).
func FilterDelta(keep func(netutil.Prefix) bool, d bgp.Delta) bgp.Delta {
	n := 0
	for _, op := range d.Ops {
		if keep(op.Entry.Prefix) {
			n++
		}
	}
	if n == len(d.Ops) {
		return d
	}
	out := bgp.Delta{Source: d.Source, Ops: make([]bgp.Op, 0, n)}
	for _, op := range d.Ops {
		if keep(op.Entry.Prefix) {
			out.Ops = append(out.Ops, op)
		}
	}
	return out
}

// Group partitions a probe batch by owning shard, preserving input
// order within each shard: groups[s] lists the indices into addrs that
// shard s owns, ascending. The router groups the same way into pooled
// scratch (scratch.group); this allocating form is for callers that keep
// the result.
func (m *Map) Group(addrs []netutil.Addr) [][]int {
	groups := make([][]int, len(m.Shards))
	// Count first so each group is allocated exactly once.
	counts := make([]int, len(m.Shards))
	for _, a := range addrs {
		counts[m.owner[a>>24]]++
	}
	for s, n := range counts {
		if n > 0 {
			groups[s] = make([]int, 0, n)
		}
	}
	for i, a := range addrs {
		s := m.owner[a>>24]
		groups[s] = append(groups[s], i)
	}
	return groups
}
