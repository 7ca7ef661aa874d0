package sketch

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refSpaceSaving is the summary as it stood before the open-addressed
// index: the same heap and sift code, with keys found through a Go map.
// It is the oracle TestSpaceSavingMatchesReference holds the index
// against, heap array for heap array. Beyond the original it reports
// the entry a takeover displaces and the entries a merge drops, read
// off the state the original computed anyway.
type refSpaceSaving struct {
	capacity  int
	total     uint64
	evictions uint64
	heap      []Entry
	pos       map[uint64]int
}

func newRefSpaceSaving(capacity int) *refSpaceSaving {
	if capacity < 1 {
		capacity = 1
	}
	return &refSpaceSaving{
		capacity: capacity,
		heap:     make([]Entry, 0, capacity),
		pos:      make(map[uint64]int, capacity),
	}
}

func (s *refSpaceSaving) minCount() uint64 {
	if len(s.heap) < s.capacity {
		return 0
	}
	return s.heap[0].Count
}

func (s *refSpaceSaving) add(key, w, b uint64) (victim Entry, evicted bool) {
	s.total += w
	if i, ok := s.pos[key]; ok {
		s.heap[i].Count += w
		s.heap[i].Bytes += b
		s.siftDown(i)
		return Entry{}, false
	}
	if len(s.heap) < s.capacity {
		s.heap = append(s.heap, Entry{Key: key, Count: w, Bytes: b})
		s.pos[key] = len(s.heap) - 1
		s.siftUp(len(s.heap) - 1)
		return Entry{}, false
	}
	s.evictions++
	root := &s.heap[0]
	victim = *root
	delete(s.pos, root.Key)
	s.pos[key] = 0
	*root = Entry{
		Key:     key,
		Count:   root.Count + w,
		Err:     root.Count,
		Bytes:   root.Bytes + b,
		ByteErr: root.Bytes,
	}
	s.siftDown(0)
	return victim, true
}

func (s *refSpaceSaving) merge(o *refSpaceSaving) []Entry {
	sMin, oMin := s.minCount(), o.minCount()
	merged := make(map[uint64]Entry, len(s.heap)+len(o.heap))
	for _, e := range s.heap {
		merged[e.Key] = e
	}
	for _, e := range o.heap {
		if m, ok := merged[e.Key]; ok {
			m.Count += e.Count
			m.Err += e.Err
			m.Bytes += e.Bytes
			m.ByteErr += e.ByteErr
			merged[e.Key] = m
		} else {
			e.Count += sMin
			e.Err += sMin
			merged[e.Key] = e
		}
	}
	for key := range merged {
		if _, inO := o.pos[key]; !inO {
			m := merged[key]
			m.Count += oMin
			m.Err += oMin
			merged[key] = m
		}
	}
	all := make([]Entry, 0, len(merged))
	for _, e := range merged {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	var dropped []Entry
	if len(all) > s.capacity {
		s.evictions += uint64(len(all) - s.capacity)
		dropped = append(dropped, all[s.capacity:]...)
		all = all[:s.capacity]
	}
	s.heap = s.heap[:0]
	s.pos = make(map[uint64]int, s.capacity)
	for _, e := range all {
		s.heap = append(s.heap, e)
		s.pos[e.Key] = len(s.heap) - 1
		s.siftUp(len(s.heap) - 1)
	}
	s.total += o.total
	s.evictions += o.evictions
	return dropped
}

func (s *refSpaceSaving) clone() *refSpaceSaving {
	out := &refSpaceSaving{
		capacity:  s.capacity,
		total:     s.total,
		evictions: s.evictions,
		heap:      append(make([]Entry, 0, s.capacity), s.heap...),
		pos:       make(map[uint64]int, s.capacity),
	}
	for k, v := range s.pos {
		out.pos[k] = v
	}
	return out
}

// roundTrip rebuilds the summary the way the snapshot decoder did:
// entries appended in serialized (heap) order, each sifted up.
func (s *refSpaceSaving) roundTrip() *refSpaceSaving {
	out := newRefSpaceSaving(s.capacity)
	out.total, out.evictions = s.total, s.evictions
	for _, e := range s.heap {
		out.heap = append(out.heap, e)
		out.pos[e.Key] = len(out.heap) - 1
		out.siftUp(len(out.heap) - 1)
	}
	return out
}

func (s *refSpaceSaving) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].Count <= s.heap[i].Count {
			return
		}
		s.swap(parent, i)
		i = parent
	}
}

func (s *refSpaceSaving) siftDown(i int) {
	n := len(s.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && s.heap[l].Count < s.heap[least].Count {
			least = l
		}
		if r := 2*i + 2; r < n && s.heap[r].Count < s.heap[least].Count {
			least = r
		}
		if least == i {
			return
		}
		s.swap(least, i)
		i = least
	}
}

func (s *refSpaceSaving) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i].Key] = i
	s.pos[s.heap[j].Key] = j
}

// sameSummary reports how s differs from the reference — heap array,
// totals — and whether its index is consistent: every heap slot's
// back-pointer names an index slot pointing back at it, no other slot
// is occupied, and every key is found from its home slot.
func sameSummary(s *SpaceSaving, r *refSpaceSaving) error {
	if s.capacity != r.capacity || s.total != r.total || s.evictions != r.evictions {
		return fmt.Errorf("capacity/total/evictions %d/%d/%d, reference %d/%d/%d",
			s.capacity, s.total, s.evictions, r.capacity, r.total, r.evictions)
	}
	if len(s.heap) != len(r.heap) {
		return fmt.Errorf("%d entries, reference %d", len(s.heap), len(r.heap))
	}
	for i := range s.heap {
		if s.heap[i] != r.heap[i] {
			return fmt.Errorf("heap[%d] = %+v, reference %+v", i, s.heap[i], r.heap[i])
		}
	}
	if len(s.where) != len(s.heap) {
		return fmt.Errorf("%d back-pointers for %d entries", len(s.where), len(s.heap))
	}
	occupied := 0
	for _, p := range s.index {
		if p != 0 {
			occupied++
		}
	}
	if occupied != len(s.heap) {
		return fmt.Errorf("index holds %d slots for %d entries", occupied, len(s.heap))
	}
	for i, e := range s.heap {
		if got := s.index[s.where[i]]; got != int32(i+1) {
			return fmt.Errorf("heap[%d]'s slot %d points at %d", i, s.where[i], got-1)
		}
		if slot, ok := s.find(e.Key); !ok || slot != s.where[i] {
			return fmt.Errorf("key %#x not found at its slot %d (found=%v at %d)", e.Key, s.where[i], ok, slot)
		}
	}
	return nil
}

// TestSpaceSavingMatchesReference: the indexed summary and the
// map-indexed reference, driven by the same seeded operations — unit
// and weighted adds, merges, clones and snapshot round trips — hold
// identical heap arrays after every step, and the index stays
// consistent. What Add displaces and Merge drops is exactly what the
// reference evicts.
func TestSpaceSavingMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(64)
		keys := refKeys(rng, 1+rng.Intn(400))
		s, r := NewSpaceSaving(capacity), newRefSpaceSaving(capacity)
		check := func(step string) {
			t.Helper()
			if err := sameSummary(s, r); err != nil {
				t.Fatalf("seed %d (capacity %d, %d keys), %s: %v", seed, capacity, len(keys), step, err)
			}
		}
		for op := 0; op < 600; op++ {
			switch x := rng.Intn(100); {
			case x < 70: // unit add
				k, b := keys[rng.Intn(len(keys))], uint64(rng.Intn(3))*uint64(rng.Intn(1500))
				v, ev := s.Add(k, 1, b)
				rv, rev := r.add(k, 1, b)
				if v != rv || ev != rev {
					t.Fatalf("seed %d op %d: Add displaced %+v (%v), reference %+v (%v)", seed, op, v, ev, rv, rev)
				}
			case x < 90: // weighted add, zero weights included
				k, w, b := keys[rng.Intn(len(keys))], uint64(rng.Intn(40)), uint64(rng.Intn(5000))
				v, ev := s.Add(k, w, b)
				rv, rev := r.add(k, w, b)
				if v != rv || ev != rev {
					t.Fatalf("seed %d op %d: weighted Add displaced %+v (%v), reference %+v (%v)", seed, op, v, ev, rv, rev)
				}
			case x < 95: // merge a peer fed from the same key space
				o, ro := NewSpaceSaving(capacity), newRefSpaceSaving(capacity)
				for n := rng.Intn(300); n > 0; n-- {
					k, w := keys[rng.Intn(len(keys))], uint64(1+rng.Intn(3))
					o.Add(k, w, w*7)
					ro.add(k, w, w*7)
				}
				dropped, err := s.Merge(o)
				if err != nil {
					t.Fatal(err)
				}
				want := r.merge(ro)
				if len(dropped) != len(want) {
					t.Fatalf("seed %d op %d: merge dropped %d entries, reference %d", seed, op, len(dropped), len(want))
				}
				for i := range want {
					if dropped[i] != want[i] {
						t.Fatalf("seed %d op %d: merge dropped[%d] = %+v, reference %+v", seed, op, i, dropped[i], want[i])
					}
				}
			case x < 98: // carry on from a clone
				s, r = s.Clone(), r.clone()
			default: // carry on from a snapshot round trip
				blob, err := s.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if s, err = UnmarshalSpaceSaving(blob); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				r = r.roundTrip()
			}
			check(fmt.Sprintf("op %d", op))
		}
	}
}

// refKeys draws n distinct keys: mostly the clustering pipeline's own
// shape (a /24 base shifted over six length bits, so the low 14 bits
// are constant — the case a weak index hash would pile up on), some
// arbitrary 64-bit values.
func refKeys(rng *rand.Rand, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := rng.Uint64()
		if rng.Intn(4) != 0 {
			k = uint64(rng.Intn(1<<16))<<14 | 24
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}
