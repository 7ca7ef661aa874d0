package radix

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"github.com/netaware/netcluster/internal/netutil"
)

// refModel is the brute-force oracle for ranked lookup: a flat key set
// scanned linearly with the same (rank desc, bits desc, ComparePrefix)
// order better() uses.
type refModel struct {
	entries map[dynKey]int
}

func newRefModel() *refModel {
	return &refModel{entries: make(map[dynKey]int)}
}

func (r *refModel) insert(p netutil.Prefix, v, rank int) {
	r.entries[dynKey{prefix: p, rank: int16(rank)}] = v
}

func (r *refModel) remove(p netutil.Prefix, rank int) {
	delete(r.entries, dynKey{prefix: p, rank: int16(rank)})
}

func (r *refModel) lookup(addr netutil.Addr) (netutil.Prefix, int, bool) {
	var bestKey dynKey
	bestVal := 0
	found := false
	for k, v := range r.entries {
		if k.prefix.Bits() == 0 || !k.prefix.Contains(addr) {
			continue // /0 never matches, as in Multibit and the bgp compiler
		}
		if !found || refBetter(k, bestKey) {
			bestKey, bestVal, found = k, v, true
		}
	}
	return bestKey.prefix, bestVal, found
}

func refBetter(a, b dynKey) bool {
	if a.rank != b.rank {
		return a.rank > b.rank
	}
	if a.prefix.Bits() != b.prefix.Bits() {
		return a.prefix.Bits() > b.prefix.Bits()
	}
	return netutil.ComparePrefix(a.prefix, b.prefix) < 0
}

func randPrefix(rng *rand.Rand) netutil.Prefix {
	bits := rng.Intn(32) + 1 // 1..32; /0 is excluded from match structures
	addr := netutil.Addr(rng.Uint32()) & netutil.Addr(netutil.MaskOf(bits))
	return netutil.PrefixFrom(addr, bits)
}

// probeSet returns the boundary addresses of every prefix in the model
// plus one-off neighbors — the points where a lookup answer can change.
func probeSet(keys map[dynKey]int) []netutil.Addr {
	seen := make(map[netutil.Addr]struct{})
	var out []netutil.Addr
	add := func(a netutil.Addr) {
		if _, dup := seen[a]; !dup {
			seen[a] = struct{}{}
			out = append(out, a)
		}
	}
	for k := range keys {
		first, last := k.prefix.First(), k.prefix.Last()
		add(first)
		add(last)
		add(first - 1) // wraps at 0: still a valid probe point
		add(last + 1)
	}
	return out
}

func TestDynamicBasic(t *testing.T) {
	d := NewDynamic[string]()
	p := netutil.MustParsePrefix("10.1.0.0/16")
	if !d.InsertRanked(p, "a", 16) {
		t.Fatal("first insert reported existing key")
	}
	if d.InsertRanked(p, "b", 16) {
		t.Fatal("re-insert reported new key")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
	f := d.Freeze()
	gp, v, ok := f.Lookup(netutil.MustParseAddr("10.1.2.3"))
	if !ok || gp != p || v != "b" {
		t.Fatalf("Lookup = %v %q %v, want %v %q true", gp, v, ok, p, "b")
	}
	if _, _, ok := f.Lookup(netutil.MustParseAddr("11.0.0.1")); ok {
		t.Fatal("lookup outside the prefix matched")
	}
	if !d.Remove(p, 16) {
		t.Fatal("Remove of live key reported absent")
	}
	if d.Remove(p, 16) {
		t.Fatal("second Remove reported present")
	}
	if _, _, ok := d.Freeze().Lookup(netutil.MustParseAddr("10.1.2.3")); ok {
		t.Fatal("lookup matched after removal")
	}
}

func TestDynamicRankShadowing(t *testing.T) {
	// The same prefix under two ranks: the higher rank wins lookups, and
	// removing it must resurface the lower-ranked twin.
	d := NewDynamic[string]()
	p := netutil.MustParsePrefix("172.16.0.0/12")
	d.InsertRanked(p, "primary", 64+12)
	d.InsertRanked(p, "secondary", 12)
	addr := netutil.MustParseAddr("172.20.5.5")
	if _, v, ok := d.Freeze().Lookup(addr); !ok || v != "primary" {
		t.Fatalf("lookup = %q %v, want primary", v, ok)
	}
	d.Remove(p, 64+12)
	if _, v, ok := d.Freeze().Lookup(addr); !ok || v != "secondary" {
		t.Fatalf("after removing primary, lookup = %q %v, want secondary", v, ok)
	}
	d.Remove(p, 12)
	if _, _, ok := d.Freeze().Lookup(addr); ok {
		t.Fatal("lookup matched after both ranks removed")
	}
}

func TestDynamicShadowRestore(t *testing.T) {
	// A /24 shadows part of a /16's expansion span in the same node;
	// removing the /24 must restore the /16 in the shadowed slots.
	d := NewDynamic[string]()
	p16 := netutil.MustParsePrefix("10.1.0.0/16")
	p24 := netutil.MustParsePrefix("10.1.7.0/24")
	d.InsertRanked(p16, "wide", 16)
	d.InsertRanked(p24, "narrow", 24)
	in24 := netutil.MustParseAddr("10.1.7.200")
	in16 := netutil.MustParseAddr("10.1.8.1")
	if gp, _, _ := d.Freeze().Lookup(in24); gp != p24 {
		t.Fatalf("lookup in /24 = %v, want %v", gp, p24)
	}
	d.Remove(p24, 24)
	f := d.Freeze()
	if gp, v, ok := f.Lookup(in24); !ok || gp != p16 || v != "wide" {
		t.Fatalf("after removing /24, lookup = %v %q %v, want %v wide", gp, v, ok, p16)
	}
	if gp, _, _ := f.Lookup(in16); gp != p16 {
		t.Fatalf("untouched /16 slot = %v, want %v", gp, p16)
	}
}

// TestDynamicVsReference drives random insert/remove churn and checks
// every freeze against the brute-force oracle at all boundary probes.
func TestDynamicVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := NewDynamic[int]()
	ref := newRefModel()
	var keys []dynKey // insertion order, may contain dead keys

	for round := 0; round < 40; round++ {
		for op := 0; op < 30; op++ {
			if len(keys) > 0 && rng.Intn(3) == 0 {
				k := keys[rng.Intn(len(keys))]
				gotLive := d.Remove(k.prefix, int(k.rank))
				_, wantLive := ref.entries[k]
				if gotLive != wantLive {
					t.Fatalf("round %d: Remove(%v,%d) = %v, oracle says %v", round, k.prefix, k.rank, gotLive, wantLive)
				}
				ref.remove(k.prefix, int(k.rank))
				continue
			}
			p := randPrefix(rng)
			rank := rng.Intn(128)
			v := rng.Int()
			d.InsertRanked(p, v, rank)
			ref.insert(p, v, rank)
			keys = append(keys, dynKey{prefix: p, rank: int16(rank)})
		}
		if d.Len() != len(ref.entries) {
			t.Fatalf("round %d: Len = %d, oracle has %d", round, d.Len(), len(ref.entries))
		}
		f := d.Freeze()
		for _, addr := range probeSet(ref.entries) {
			gp, gv, gok := f.Lookup(addr)
			wp, wv, wok := ref.lookup(addr)
			if gok != wok || (gok && (gp != wp || gv != wv)) {
				t.Fatalf("round %d: Lookup(%v) = %v %d %v, oracle %v %d %v",
					round, addr, gp, gv, gok, wp, wv, wok)
			}
		}
	}
}

// TestDynamicIncrementalFreezeMatchesScratch checks the core invariant
// behind delta compilation: after arbitrary churn, an incrementally
// frozen table answers identically to a Multibit built from scratch over
// the same live key set.
func TestDynamicIncrementalFreezeMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDynamic[int]()
	live := make(map[dynKey]int)
	var keys []dynKey

	var lastFrozen *Frozen[int]
	for round := 0; round < 25; round++ {
		for op := 0; op < 40; op++ {
			if len(keys) > 0 && rng.Intn(2) == 0 {
				k := keys[rng.Intn(len(keys))]
				d.Remove(k.prefix, int(k.rank))
				delete(live, k)
				continue
			}
			p := randPrefix(rng)
			rank := rng.Intn(100)
			v := rng.Int()
			d.InsertRanked(p, v, rank)
			k := dynKey{prefix: p, rank: int16(rank)}
			live[k] = v
			keys = append(keys, k)
		}
		lastFrozen = d.Freeze()
	}

	scratch := NewMultibit[int]()
	for k, v := range live {
		scratch.InsertRanked(k.prefix, v, int(k.rank))
	}
	sf := scratch.Freeze()

	rng2 := rand.New(rand.NewSource(99))
	probes := probeSet(live)
	for i := 0; i < 5000; i++ {
		probes = append(probes, netutil.Addr(rng2.Uint32()))
	}
	for _, addr := range probes {
		gp, gv, gok := lastFrozen.Lookup(addr)
		wp, wv, wok := sf.Lookup(addr)
		if gok != wok || (gok && (gp != wp || gv != wv)) {
			t.Fatalf("Lookup(%v): incremental %v %d %v, scratch %v %d %v", addr, gp, gv, gok, wp, wv, wok)
		}
	}
}

// TestDynamicOldGenerationsImmutable pins every generation of a long
// churn, re-rendered arenas and path copies alike, and checks each one
// still answers exactly as it did at its freeze point — the RCU safety
// property of the shared block arena.
func TestDynamicOldGenerationsImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	d := NewDynamic[int]()
	var keys []dynKey
	for i := 0; i < 300; i++ {
		p := randPrefix(rng)
		rank := rng.Intn(64)
		d.InsertRanked(p, i, rank)
		keys = append(keys, dynKey{prefix: p, rank: int16(rank)})
	}

	var probes []netutil.Addr
	for i := 0; i < 2000; i++ {
		probes = append(probes, netutil.Addr(rng.Uint32()))
	}
	type ans struct {
		p  netutil.Prefix
		v  int
		ok bool
	}
	type pinned struct {
		f    *Frozen[int]
		want []ans
	}
	pin := func(f *Frozen[int]) pinned {
		want := make([]ans, len(probes))
		for i, a := range probes {
			p, v, ok := f.Lookup(a)
			want[i] = ans{p, v, ok}
		}
		return pinned{f, want}
	}
	gens := []pinned{pin(d.Freeze())}

	// Heavy churn, including removals of gen0 keys, one freeze per round.
	rerenders, rootMoved := 0, false
	for round := 0; round < 40; round++ {
		for op := 0; op < 40; op++ {
			if rng.Intn(2) == 0 && len(keys) > 0 {
				k := keys[rng.Intn(len(keys))]
				d.Remove(k.prefix, int(k.rank))
			} else {
				p := randPrefix(rng)
				rank := rng.Intn(64)
				d.InsertRanked(p, rng.Int(), rank)
				keys = append(keys, dynKey{prefix: p, rank: int16(rank)})
			}
		}
		f := d.Freeze()
		if &f.children[0] != &gens[len(gens)-1].f.children[0] {
			rerenders++
		}
		rootMoved = rootMoved || f.root != gens[0].f.root
		gens = append(gens, pin(f))
	}
	if rerenders < 3 {
		t.Fatalf("churn crossed %d arena re-renders, want at least 3", rerenders)
	}
	if !rootMoved {
		t.Fatal("no generation path-copied its root")
	}

	for g, gen := range gens {
		for i, a := range probes {
			p, v, ok := gen.f.Lookup(a)
			if w := gen.want[i]; p != w.p || v != w.v || ok != w.ok {
				t.Fatalf("gen%d.Lookup(%v) changed after churn: now %v %d %v, was %v %d %v",
					g, a, p, v, ok, w.p, w.v, w.ok)
			}
		}
	}
}

// churnedDynamic returns a Dynamic after random churn, frozen until a
// generation path-copied its root, plus the live key set.
func churnedDynamic(t *testing.T, rng *rand.Rand) (*Dynamic[int], *Frozen[int], map[dynKey]int) {
	t.Helper()
	d := NewDynamic[int]()
	live := make(map[dynKey]int)
	var keys []dynKey
	for round := 0; round < 100; round++ {
		for op := 0; op < 30; op++ {
			if len(keys) > 0 && rng.Intn(3) == 0 {
				k := keys[rng.Intn(len(keys))]
				d.Remove(k.prefix, int(k.rank))
				delete(live, k)
				continue
			}
			p := randPrefix(rng)
			k := dynKey{prefix: p, rank: int16(p.Bits() + 64*rng.Intn(2))}
			v := rng.Int()
			d.InsertRanked(p, v, int(k.rank))
			live[k] = v
			keys = append(keys, k)
		}
		if f := d.Freeze(); round >= 10 && f.root != 0 {
			return d, f, live
		}
	}
	t.Fatal("no generation path-copied its root")
	return nil, nil, nil
}

// TestDynamicRawIsCanonical exports a path-copied generation through
// Raw: the arrays must pass NewFrozen's forward-child validation, hold
// exactly the live nodes, and answer every probe as the generation does;
// both tables' batch kernels must agree with the sequential walk.
func TestDynamicRawIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, f, live := churnedDynamic(t, rng)
	children, slots, prefixes, ranks, values, size := f.Raw()
	if len(children) == len(f.children) {
		t.Fatalf("Raw kept all %d arena blocks of a path-copied generation", len(f.children)/256)
	}
	g, err := NewFrozen(children, slots, prefixes, ranks, values, size)
	if err != nil {
		t.Fatalf("NewFrozen rejected Raw of a path-copied generation: %v", err)
	}
	if g.NumNodes() != f.NumNodes() || f.NumNodes() != d.NumNodes() {
		t.Fatalf("NumNodes: exported %d, generation %d, Dynamic %d", g.NumNodes(), f.NumNodes(), d.NumNodes())
	}
	if g.Len() != f.Len() {
		t.Fatalf("Len: exported %d, generation %d", g.Len(), f.Len())
	}
	probes := probeSet(live)
	for i := 0; i < 2000; i++ {
		probes = append(probes, netutil.Addr(rng.Uint32()))
	}
	for _, table := range []*Frozen[int]{f, g} {
		rows := table.LookupBatch(probes, nil)
		for i, a := range probes {
			wp, wv, wok := f.Lookup(a)
			gp, gv, gok := g.Lookup(a)
			if gok != wok || gp != wp || gv != wv {
				t.Fatalf("Lookup(%v): exported %v %d %v, generation %v %d %v", a, gp, gv, gok, wp, wv, wok)
			}
			if (rows[i] >= 0) != wok {
				t.Fatalf("LookupBatch(%v): row %d, Lookup ok=%v", a, rows[i], wok)
			}
			if wok {
				if bp, bv := table.Entry(rows[i]); bp != wp || bv != wv {
					t.Fatalf("LookupBatch(%v) = %v %d, Lookup %v %d", a, bp, bv, wp, wv)
				}
			}
		}
	}
	// The export of an export is the same arrays: one canonical layout.
	c2, s2, _, _, _, _ := g.Raw()
	if &c2[0] != &children[0] || &s2[0] != &slots[0] {
		t.Fatal("Raw copied a table already in canonical layout")
	}
}

// TestDynamicFreezeCostsWhatChanged is the guard on "a swap costs what
// changed": on a ~2k-node table one single-prefix insert plus Freeze
// appends no more blocks than the path from the root to the prefix's
// node and allocates well under one full copy (8 MiB here).
func TestDynamicFreezeCostsWhatChanged(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDynamic[int]()
	for d.NumNodes() < 2000 {
		bits := 9 + rng.Intn(16)
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32())&netutil.Addr(netutil.MaskOf(bits)), bits)
		d.InsertRanked(p, 0, bits)
	}
	prev := d.Freeze()
	var allocs []uint64
	var ms runtime.MemStats
	for trial := 0; trial < 15; trial++ {
		bits := 1 + rng.Intn(32)
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32())&netutil.Addr(netutil.MaskOf(bits)), bits)
		depth, _, _ := expansion(p)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		d.InsertRanked(p, trial, bits)
		f := d.Freeze()
		runtime.ReadMemStats(&ms)
		if &f.children[0] != &prev.children[0] {
			prev = f
			continue // re-rendered: the full cost, paid once per arena
		}
		allocs = append(allocs, ms.TotalAlloc-before)
		if added := (len(f.children) - len(prev.children)) / 256; added > depth+1 {
			t.Fatalf("trial %d: inserting %v appended %d blocks, want <= %d", trial, p, added, depth+1)
		}
		prev = f
	}
	if len(allocs) < 10 {
		t.Fatalf("only %d of 15 single-prefix freezes path-copied", len(allocs))
	}
	// The median: an occasional trial also grows the key map or the entry
	// arena, which is amortized append cost, not freeze cost.
	sort.Slice(allocs, func(i, j int) bool { return allocs[i] < allocs[j] })
	if med := allocs[len(allocs)/2]; med >= 64<<10 {
		t.Fatalf("single-prefix insert + Freeze allocated %d B (median of %d), want < 64 KiB", med, len(allocs))
	}
}

// TestDynamicFirstBatchAllocatesNothing checks that a Dynamic generation
// is born with the batch kernel's packed words: the first LookupBatch on
// every fresh generation allocates nothing beyond dst.
func TestDynamicFirstBatchAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDynamic[int]()
	for i := 0; i < 500; i++ {
		p := randPrefix(rng)
		d.InsertRanked(p, i, p.Bits())
	}
	const runs = 8
	gens := make([]*Frozen[int], runs+1) // AllocsPerRun calls once more to warm up
	for i := range gens {
		p := randPrefix(rng)
		d.InsertRanked(p, i, p.Bits())
		gens[i] = d.Freeze()
	}
	probes := make([]netutil.Addr, 1000)
	for i := range probes {
		probes[i] = netutil.Addr(rng.Uint32())
	}
	dst := make([]int32, len(probes))
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		dst = gens[next].LookupBatch(probes, dst)
		next++
	})
	if allocs != 0 {
		t.Fatalf("first LookupBatch on a fresh generation allocated %.1f times, want 0", allocs)
	}
}

func TestDynamicDeadEntriesAccounting(t *testing.T) {
	d := NewDynamic[int]()
	p := netutil.MustParsePrefix("192.168.0.0/24")
	d.InsertRanked(p, 1, 24)
	if d.DeadEntries() != 0 {
		t.Fatalf("DeadEntries before any freeze = %d, want 0", d.DeadEntries())
	}
	// Unfrozen entries never hit the arena: replace + remove cost nothing.
	d.InsertRanked(p, 2, 24)
	d.Remove(p, 24)
	if d.DeadEntries() != 0 {
		t.Fatalf("DeadEntries after unfrozen churn = %d, want 0", d.DeadEntries())
	}
	d.InsertRanked(p, 3, 24)
	d.Freeze()
	d.InsertRanked(p, 4, 24) // replaces a frozen row: one dead row
	if d.DeadEntries() != 1 {
		t.Fatalf("DeadEntries after replacing frozen entry = %d, want 1", d.DeadEntries())
	}
	d.Freeze()
	d.Remove(p, 24) // removes a frozen row: another dead row
	if d.DeadEntries() != 2 {
		t.Fatalf("DeadEntries after removing frozen entry = %d, want 2", d.DeadEntries())
	}
}

func TestDynamicRankRange(t *testing.T) {
	d := NewDynamic[int]()
	for _, rank := range []int{-1, 1<<14 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InsertRanked(rank=%d) did not panic", rank)
				}
			}()
			d.InsertRanked(netutil.MustParsePrefix("1.0.0.0/8"), 0, rank)
		}()
	}
}

func TestDynamicWalk(t *testing.T) {
	d := NewDynamic[int]()
	want := map[string]int{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		p := randPrefix(rng)
		rank := rng.Intn(32)
		d.InsertRanked(p, i, rank)
		want[fmt.Sprintf("%v#%d", p, rank)] = i
	}
	got := map[string]int{}
	d.Walk(func(p netutil.Prefix, rank int, v int) bool {
		got[fmt.Sprintf("%v#%d", p, rank)] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Walk visited %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Walk[%s] = %d, want %d", k, got[k], v)
		}
	}
}
