package cluster

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/netaware/netcluster/internal/weblog"
)

// fuzzURL maps a fuzz byte to an id on either side of the bitmap's
// bound: low ids, the ids around bitmapIDs, ids past it, and the int32
// extremes.
func fuzzURL(b byte) int32 {
	switch b % 4 {
	case 0:
		return int32(b>>2) * 65 // bit m of word m
	case 1:
		return bitmapIDs - 6 + int32(b>>2)%12
	case 2:
		return bitmapIDs + int32(b)*97
	default:
		return []int32{math.MinInt32, -1, 63, 64, math.MaxInt32 - 1, math.MaxInt32}[int(b>>2)%6]
	}
}

// FuzzURLSet holds a urlSet to a map oracle through any sequence of adds
// and remapped merges: after every operation NumURLs and the sorted ids
// each hands out must be the oracle's.
func FuzzURLSet(f *testing.F) {
	f.Add([]byte{0, 4, 8})
	f.Add([]byte{1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45})
	f.Add([]byte{3, 7, 11, 15, 19, 23, 3, 7})
	f.Add([]byte{0x83, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 9, 2, 10})
	f.Add([]byte{2, 6, 0x87, 2, 6, 10, 14, 3, 7, 11, 15, 0, 4, 8, 12, 1, 5, 9, 13, 0, 1, 8, 9, 7, 15, 3, 11, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The ops draw on about 150 ids, which a few hundred ops cover;
		// longer inputs would only slow the per-op check.
		data = data[:min(len(data), 1024)]
		var s urlSet
		var slab bitmapSlab
		oracle := make(map[int32]struct{})
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op&0x80 == 0 {
				u := fuzzURL(op)
				s.add(u, &slab)
				oracle[u] = struct{}{}
			} else {
				// A merge: a worker's set over local ids 0–7 and
				// 4,096–4,103, each remapped to a byte-chosen id, then
				// up to 16 bytes picking the local ids the set holds.
				if len(data) < 16 {
					return
				}
				local := func(b byte) int32 { return int32(b&7) + int32(b>>3&1)*bitmapIDs }
				remap := make([]int32, bitmapIDs+8)
				for i, b := range data[:16] {
					remap[local(byte(i))] = fuzzURL(b)
				}
				data = data[16:]
				var src urlSet
				var srcSlab bitmapSlab
				for k := 1 + int(op&0x7f)%16; k > 0 && len(data) > 0; k-- {
					u := local(data[0])
					data = data[1:]
					src.add(u, &srcSlab)
					oracle[remap[u]] = struct{}{}
				}
				s.addRemapped(&src, remap, &slab)
			}
			if s.n != len(oracle) {
				t.Fatalf("NumURLs %d, oracle holds %d", s.n, len(oracle))
			}
			want := make([]int32, 0, len(oracle))
			for u := range oracle {
				want = append(want, u)
			}
			slices.Sort(want)
			if got := sortedURLs(s.each); !slices.Equal(got, want) {
				t.Fatalf("ids %v, oracle %v", got, want)
			}
		}
	})
}

// perClusterAllocs is what a pass may allocate per cluster beyond what
// the parse allocates: the Clients map's header and table, made once at
// its final size, and a share of the slabs the cluster structs, URL
// bitmaps and client accumulators are carved from.
const perClusterAllocs = 3

// TestClusterStreamAllocsBounded holds a pass's allocations to the
// clusters it reports, not the records it reads: the same log twice over
// costs what it costs once, and beyond the parse a pass stays within
// perClusterAllocs per cluster. The log keeps under 896 distinct clients:
// a Go map past one 1,024-slot table splits it by hash, which would vary
// the count from run to run.
func TestClusterStreamAllocsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]string, 8000)
	for i := range pairs {
		k := rng.Intn(300)
		client := fmt.Sprintf("10.%d.%d.%d", k/256, k%256, 1+rng.Intn(2))
		pairs[i] = [2]string{client, fmt.Sprintf("/p%d", rng.Intn(400))}
	}
	once := []byte(clfOf(t, logOf(pairs...)))
	twice := append(append([]byte(nil), once...), once...)

	var clusters int
	pass := func(clf []byte) func() {
		return func() {
			res, err := ClusterStream(bytes.NewReader(clf), Simple{})
			if err != nil {
				t.Fatal(err)
			}
			clusters = len(res.Clusters)
		}
	}
	parse := func() {
		weblog.StreamCLF(bytes.NewReader(once), func(weblog.StreamRecord) bool { return true })
	}
	allocsOnce := testing.AllocsPerRun(20, pass(once))
	if allocsTwice := testing.AllocsPerRun(20, pass(twice)); allocsTwice != allocsOnce {
		t.Errorf("the log twice over costs %v allocations, once %v", allocsTwice, allocsOnce)
	}
	parseAllocs := testing.AllocsPerRun(20, parse)
	t.Logf("%d clusters: %v allocations a pass, %v of them the parse's", clusters, allocsOnce, parseAllocs)
	if per := (allocsOnce - parseAllocs) / float64(clusters); per > perClusterAllocs {
		t.Errorf("%v allocations over the parse's %v for %d clusters: %.2f per cluster, budget %d",
			allocsOnce-parseAllocs, parseAllocs, clusters, per, perClusterAllocs)
	}
}
