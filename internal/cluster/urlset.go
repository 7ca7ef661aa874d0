package cluster

import "math/bits"

// bitmapIDs is how many URL ids a cluster's bitmap covers. URL ids are
// dense from 0 — indexes into a Log's Resources, or the stream scanner's
// first-seen numbering, which puts a log's popular URLs first — and 4,096
// ids cost 512 bytes per cluster, less than a Go map allocates growing
// to 16 ids (649 bytes in 7 allocations on go1.24).
const bitmapIDs = 4096

type urlBitmap [bitmapIDs / 64]uint64

// urlSet is one cluster's set of distinct URL ids: a bitmap over ids
// below bitmapIDs, allocated on the first such id, and a map for any
// other id. n counts both.
type urlSet struct {
	low  *urlBitmap
	high map[int32]struct{}
	n    int
}

// add puts u in the set, carving the bitmap from slab when it is the
// set's first id below bitmapIDs.
func (s *urlSet) add(u int32, slab *bitmapSlab) {
	if uint32(u) < bitmapIDs {
		if s.low == nil {
			s.low = slab.next()
		}
		w, bit := &s.low[u>>6], uint64(1)<<(u&63)
		if *w&bit == 0 {
			*w |= bit
			s.n++
		}
		return
	}
	if s.high == nil {
		s.high = make(map[int32]struct{})
	}
	if _, ok := s.high[u]; !ok {
		s.high[u] = struct{}{}
		s.n++
	}
}

// addRemapped adds remap[u] for every id u of src.
func (s *urlSet) addRemapped(src *urlSet, remap []int32, slab *bitmapSlab) {
	src.each(func(u int32) { s.add(remap[u], slab) })
}

// each calls fn once per id: the bitmap's in increasing order, then the
// map's in no particular order.
func (s *urlSet) each(fn func(int32)) {
	if s.low != nil {
		for w, word := range s.low {
			for ; word != 0; word &= word - 1 {
				fn(int32(w<<6 | bits.TrailingZeros64(word)))
			}
		}
	}
	for u := range s.high {
		fn(u)
	}
}

// bitmapSlab hands out zeroed bitmaps carved from shared blocks, one
// allocation per bitmapSlabLen clusters instead of one per cluster.
type bitmapSlab []urlBitmap

const bitmapSlabLen = 64

func (s *bitmapSlab) next() *urlBitmap {
	if len(*s) == cap(*s) {
		*s = make([]urlBitmap, 0, bitmapSlabLen)
	}
	*s = append(*s, urlBitmap{})
	return &(*s)[len(*s)-1]
}
