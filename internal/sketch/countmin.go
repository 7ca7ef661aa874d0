// Package sketch provides the bounded-memory stream summaries behind
// firehose-scale clustering: a count-min sketch with conservative
// update and a space-saving heavy-hitter summary. The combination
// implements the paper's own thresholding observation as a data
// structure: ~70% of requests come from a small busy tail of clusters
// (Section 4.1.3), so the busy clusters are tracked exactly in O(K)
// counters while the long tail is approximated in O(width·depth) sketch
// cells — memory independent of how many distinct clusters a
// 100M-request stream touches.
//
// Guarantees, each property-tested in sketch_test.go:
//
//   - CountMin.Estimate never undercounts: estimate ≥ true count,
//     always; estimate ≤ true count + ε·N with probability ≥ 1-δ for
//     width ≥ e/ε, depth ≥ ln(1/δ).
//   - SpaceSaving with capacity C retains every item whose true count
//     exceeds N/C, and brackets every retained item's true count in
//     [Count-Err, Count]. An entry with Err == 0 is exact.
package sketch

import (
	"fmt"
	"math"
)

// splitmix64 is the SplitMix64 finalizer: a full-avalanche bijection on
// uint64, used to derive per-row hash functions. Deterministic, so any
// two sketches with equal dimensions hash identically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rowSeed returns the hash seed for sketch row i. Package-level and
// pure, so every CountMin of a given depth uses the same hash family.
func rowSeed(i int) uint64 {
	return splitmix64(uint64(i+1) * 0x9e3779b97f4a7c15)
}

// CountMin is a count-min sketch over uint64 keys: depth rows of width
// counters, each row indexed by an independent hash. Estimates are the
// minimum over rows, so they only ever overcount. Not safe for
// concurrent use; callers on shared paths hold their own lock (the
// accumulator in internal/cluster locks per batch, not per record).
type CountMin struct {
	width uint64 // power of two
	depth int
	mask  uint64
	total uint64   // N: sum of all added weights
	rows  []uint64 // depth consecutive segments of width cells
	seeds []uint64 // rowSeed(i) per row, hashed once at construction
	cells []uint64 // AddConservative's per-row cell indices, reused
}

// NewCountMin builds a sketch with the given dimensions; width is
// rounded up to a power of two (indexing is a mask, not a modulo).
func NewCountMin(width, depth int) *CountMin {
	if width < 2 {
		width = 2
	}
	if depth < 1 {
		depth = 1
	}
	w := uint64(1)
	for w < uint64(width) {
		w <<= 1
	}
	return newCountMin(w, depth)
}

// newCountMin allocates a zeroed sketch of power-of-two width w — the
// one place rows, row seeds and the update scratch are sized.
func newCountMin(w uint64, depth int) *CountMin {
	c := &CountMin{
		width: w,
		depth: depth,
		mask:  w - 1,
		rows:  make([]uint64, w*uint64(depth)),
		seeds: make([]uint64, depth),
		cells: make([]uint64, depth),
	}
	for i := range c.seeds {
		c.seeds[i] = rowSeed(i)
	}
	return c
}

// NewCountMinError sizes the sketch from an accuracy target: estimates
// exceed true counts by at most epsilon·N with probability ≥ 1-delta
// (width = e/epsilon rounded up to a power of two, depth = ln(1/delta)
// rounded up).
func NewCountMinError(epsilon, delta float64) (*CountMin, error) {
	if epsilon <= 0 || epsilon >= 1 {
		return nil, fmt.Errorf("sketch: epsilon %v out of (0, 1)", epsilon)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("sketch: delta %v out of (0, 1)", delta)
	}
	width := int(math.Ceil(math.E / epsilon))
	depth := int(math.Ceil(math.Log(1 / delta)))
	return NewCountMin(width, depth), nil
}

// Epsilon returns the guaranteed per-query error fraction for this
// width: Estimate(k) ≤ true(k) + Epsilon()·Total() with probability
// ≥ 1 - exp(-depth).
func (c *CountMin) Epsilon() float64 { return math.E / float64(c.width) }

// cell returns the row-i cell index for key.
func (c *CountMin) cell(i int, key uint64) uint64 {
	return uint64(i)*c.width + (splitmix64(key^c.seeds[i]) & c.mask)
}

// Add records weight w for key with the plain update rule: every row's
// cell grows by w, so a plain sketch upper-bounds a conservative one
// fed the same stream.
func (c *CountMin) Add(key, w uint64) {
	c.total += w
	for i := 0; i < c.depth; i++ {
		c.rows[c.cell(i, key)] += w
	}
}

// AddConservative records weight w with the conservative-update rule:
// only cells below the item's new estimate grow, and only up to it.
// Collisions inflate far fewer cells than plain update, so estimates
// tighten — at the cost of exact mergeability (see package comment).
// It returns the key's new estimate. Each row's cell is hashed once:
// the first pass parks the indices in the sketch's scratch for the
// second, so the update allocates nothing at any depth.
func (c *CountMin) AddConservative(key, w uint64) uint64 {
	c.total += w
	cells := c.cells
	est := uint64(math.MaxUint64)
	for i := range cells {
		j := c.cell(i, key)
		cells[i] = j
		if v := c.rows[j]; v < est {
			est = v
		}
	}
	est += w
	for _, j := range cells {
		if c.rows[j] < est {
			c.rows[j] = est
		}
	}
	return est
}

// Estimate returns the key's count upper bound: the minimum cell over
// all rows. Never less than the key's true added weight.
func (c *CountMin) Estimate(key uint64) uint64 {
	est := uint64(math.MaxUint64)
	for i := 0; i < c.depth; i++ {
		if v := c.rows[c.cell(i, key)]; v < est {
			est = v
		}
	}
	return est
}

// FootprintBytes returns the fixed memory the sketch holds — the number
// the bounded accumulator's RSS ceiling is computed from.
func (c *CountMin) FootprintBytes() int {
	return (len(c.rows)+len(c.seeds)+len(c.cells))*8 + 64
}
