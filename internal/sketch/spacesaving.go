package sketch

import (
	"math/bits"
	"sort"
)

// Entry is one monitored heavy hitter. Count is an upper bound on the
// item's true count and Count-Err a lower bound; an entry that was
// never evicted has Err == 0 and its Count (and Bytes) are exact.
// Bytes carries a second accumulated weight — per-cluster byte volume
// in the clustering pipeline — with the same upper-bound/slack
// bracketing (Bytes-ByteErr ≤ true ≤ Bytes).
type Entry struct {
	Key     uint64
	Count   uint64
	Err     uint64
	Bytes   uint64
	ByteErr uint64
}

// SpaceSaving is the Metwally-style stream summary: a fixed set of
// counters over the busiest keys. When a new key arrives at capacity,
// the minimum counter is evicted and the newcomer inherits its count
// as slack (Err) — so any key whose true count exceeds Total/Capacity
// is guaranteed monitored, and the summary never grows. Not safe for
// concurrent use.
//
// Keys are found through an open-addressed index rather than a Go map:
// index holds heap position+1 (0 marks an empty slot), probed linearly
// from a Fibonacci hash of the key, at most half full; where[i] is the
// index slot that points at heap[i], so a heap swap is four slice
// stores and a delete can shift later probes back into its hole.
type SpaceSaving struct {
	capacity  int
	total     uint64
	evictions uint64
	heap      []Entry // min-heap on Count
	where     []int32 // heap position -> its index slot
	index     []int32 // key slot -> heap position+1; power-of-two length
	shift     uint    // 64 - log2(len(index)): the hash keeps the top bits
}

// NewSpaceSaving builds a summary with the given counter capacity.
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity < 1 {
		capacity = 1
	}
	logSize := bits.Len(uint(2*capacity - 1)) // 2^logSize ≥ 2·capacity
	return &SpaceSaving{
		capacity: capacity,
		heap:     make([]Entry, 0, capacity),
		where:    make([]int32, 0, capacity),
		index:    make([]int32, 1<<logSize),
		shift:    uint(64 - logSize),
	}
}

// Len returns how many keys are currently monitored (≤ Capacity).
func (s *SpaceSaving) Len() int { return len(s.heap) }

// Evictions returns how many takeovers have happened — the
// heavy-hitter churn signal the obsv gauges publish.
func (s *SpaceSaving) Evictions() uint64 { return s.evictions }

// MinCount returns the smallest monitored count — the eviction
// threshold an unmonitored key must beat, and the upper bound on any
// unmonitored key's true count once the summary is full.
func (s *SpaceSaving) MinCount() uint64 {
	if len(s.heap) < s.capacity {
		return 0
	}
	return s.heap[0].Count
}

// Add records count weight w (and byte weight b) for key. When the
// key takes over the minimum counter, the displaced entry is returned
// with evicted true — the caller's one chance to account for the
// traffic it gathered while monitored (Count-Err requests, Bytes-ByteErr
// bytes).
func (s *SpaceSaving) Add(key, w, b uint64) (victim Entry, evicted bool) {
	s.total += w
	slot, ok := s.find(key)
	if ok {
		i := s.index[slot] - 1
		s.heap[i].Count += w
		s.heap[i].Bytes += b
		s.siftDown(int(i))
		return Entry{}, false
	}
	if len(s.heap) < s.capacity {
		s.push(slot, Entry{Key: key, Count: w, Bytes: b})
		return Entry{}, false
	}
	// Takeover: the newcomer replaces the minimum counter, inheriting
	// its count (and bytes) as both ballast and declared slack. The
	// victim leaves the index first: its backward shift can move the
	// slot the newcomer's probe ended on.
	s.evictions++
	victim = s.heap[0]
	s.unindex(0)
	slot, _ = s.find(key)
	s.index[slot] = 1
	s.where[0] = slot
	s.heap[0] = Entry{
		Key:     key,
		Count:   victim.Count + w,
		Err:     victim.Count,
		Bytes:   victim.Bytes + b,
		ByteErr: victim.Bytes,
	}
	s.siftDown(0)
	return victim, true
}

// Get returns the monitored entry for key, if present.
func (s *SpaceSaving) Get(key uint64) (Entry, bool) {
	if slot, ok := s.find(key); ok {
		return s.heap[s.index[slot]-1], true
	}
	return Entry{}, false
}

// Top returns the k largest entries by Count (descending), ties broken
// by ascending key so the order is total and stable.
func (s *SpaceSaving) Top(k int) []Entry {
	out := append([]Entry(nil), s.heap...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// FootprintBytes returns the fixed memory the summary holds: the
// entries, their back-pointers and the index, all sized at construction.
func (s *SpaceSaving) FootprintBytes() int {
	const entrySize = 40 // 5 × uint64
	return s.capacity*(entrySize+4) + len(s.index)*4 + 64
}

// find probes the index for key. It returns the slot holding key, or
// the empty slot that ends the probe — where key would be inserted.
func (s *SpaceSaving) find(key uint64) (slot int32, ok bool) {
	mask := int32(len(s.index) - 1)
	for slot = s.home(key); ; slot = (slot + 1) & mask {
		p := s.index[slot]
		if p == 0 {
			return slot, false
		}
		if s.heap[p-1].Key == key {
			return slot, true
		}
	}
}

// home is key's preferred index slot: the top bits of a Fibonacci
// hash, which spread the structured prefix keys (low bits all zero for
// a given length) evenly.
func (s *SpaceSaving) home(key uint64) int32 {
	return int32((key * 0x9e3779b97f4a7c15) >> s.shift)
}

// push appends e to the heap, records it at the empty index slot find
// returned for its key, and restores heap order.
func (s *SpaceSaving) push(slot int32, e Entry) {
	s.heap = append(s.heap, e)
	s.where = append(s.where, slot)
	s.index[slot] = int32(len(s.heap))
	s.siftUp(len(s.heap) - 1)
}

// unindex removes heap[i]'s key from the index by backward shift: each
// later entry of the probe run whose home does not lie between the hole
// and itself moves back into the hole, so no probe ever stops early at
// a slot a delete emptied.
func (s *SpaceSaving) unindex(i int) {
	mask := int32(len(s.index) - 1)
	hole := s.where[i]
	for j := (hole + 1) & mask; ; j = (j + 1) & mask {
		p := s.index[j]
		if p == 0 {
			break
		}
		if home := s.home(s.heap[p-1].Key); (j-home)&mask >= (j-hole)&mask {
			s.index[hole] = p
			s.where[p-1] = hole
			hole = j
		}
	}
	s.index[hole] = 0
}

func (s *SpaceSaving) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].Count <= s.heap[i].Count {
			return
		}
		s.swap(parent, i)
		i = parent
	}
}

func (s *SpaceSaving) siftDown(i int) {
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

func (s *SpaceSaving) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.where[i], s.where[j] = s.where[j], s.where[i]
	s.index[s.where[i]] = int32(i + 1)
	s.index[s.where[j]] = int32(j + 1)
}
