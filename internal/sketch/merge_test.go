package sketch

// Merging, cloning and the plain (non-conservative) count-min update:
// the algebra the sketch tests check the summaries' guarantees with.
// The clustering pipeline runs one accumulator per pass and never
// merges, so these live with the tests.

import (
	"fmt"
	"sort"
)

// Merge folds o into c cell by cell. Both sketches must have identical
// dimensions — same width, same depth — or the merge is rejected
// loudly; a dimension-mismatched merge would silently misalign every
// hash. For plain-update sketches the result is exactly the sketch of
// the concatenated streams.
func (c *CountMin) Merge(o *CountMin) error {
	if o == nil {
		return fmt.Errorf("sketch: merge with nil count-min")
	}
	if c.width != o.width || c.depth != o.depth {
		return fmt.Errorf("sketch: merge dimension mismatch: %dx%d vs %dx%d",
			c.width, c.depth, o.width, o.depth)
	}
	for i, v := range o.rows {
		c.rows[i] += v
	}
	c.total += o.total
	return nil
}

// Clone returns an independent deep copy.
func (c *CountMin) Clone() *CountMin {
	out := newCountMin(c.width, c.depth)
	out.total = c.total
	copy(out.rows, c.rows)
	return out
}

// Merge folds o into s. Both summaries must have equal capacity —
// merging across mismatched budgets would weaken the N/C guarantee of
// the smaller side silently, so it is rejected loudly instead. Matched
// keys sum their counts and slacks; a key monitored on only one side
// additionally inherits the other side's MinCount as slack (its count
// there is unknown but bounded by that minimum). The result keeps the
// top Capacity entries, preserving the merged guarantee: any key with
// true combined count > (Na+Nb)/Capacity stays monitored. The merged
// entries that did not fit are returned, largest first; as with Add's
// victim, Count-Err and Bytes-ByteErr is the traffic they leave with.
func (s *SpaceSaving) Merge(o *SpaceSaving) (dropped []Entry, err error) {
	if o == nil {
		return nil, fmt.Errorf("sketch: merge with nil space-saving summary")
	}
	if s.capacity != o.capacity {
		return nil, fmt.Errorf("sketch: merge capacity mismatch: %d vs %d", s.capacity, o.capacity)
	}
	sMin, oMin := s.MinCount(), o.MinCount()
	all := make([]Entry, 0, len(s.heap)+len(o.heap))
	for _, e := range s.heap {
		if slot, ok := o.find(e.Key); ok {
			m := o.heap[o.index[slot]-1]
			e.Count += m.Count
			e.Err += m.Err
			e.Bytes += m.Bytes
			e.ByteErr += m.ByteErr
		} else {
			// Monitored only in s: its count in o's stream is at most o's
			// minimum counter.
			e.Count += oMin
			e.Err += oMin
		}
		all = append(all, e)
	}
	for _, e := range o.heap {
		if _, ok := s.find(e.Key); !ok {
			e.Count += sMin
			e.Err += sMin
			all = append(all, e)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > s.capacity {
		s.evictions += uint64(len(all) - s.capacity)
		all, dropped = all[:s.capacity], all[s.capacity:]
	}
	s.heap = s.heap[:0]
	s.where = s.where[:0]
	clear(s.index)
	for _, e := range all {
		slot, _ := s.find(e.Key)
		s.push(slot, e)
	}
	s.total += o.total
	s.evictions += o.evictions
	return dropped, nil
}

// Clone returns an independent deep copy.
func (s *SpaceSaving) Clone() *SpaceSaving {
	return &SpaceSaving{
		capacity:  s.capacity,
		total:     s.total,
		evictions: s.evictions,
		heap:      append(make([]Entry, 0, s.capacity), s.heap...),
		where:     append(make([]int32, 0, s.capacity), s.where...),
		index:     append([]int32(nil), s.index...),
		shift:     s.shift,
	}
}
