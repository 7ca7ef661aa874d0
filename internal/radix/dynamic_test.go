package radix

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// checkSlots is the slot oracle: the canonical Raw of generation f must
// hold, slot by slot, what a from-scratch Dynamic over live holds — the
// same resolved prefix and rank (rows may differ) and a child wherever
// the scratch table has one. Nodes emptied by removals stay linked in
// f, so f may have children the scratch table lacks, but every slot
// beneath them must be empty.
func checkSlots(t *testing.T, f *Frozen[int], live map[dynKey]int) {
	t.Helper()
	scratch := NewDynamic[int]()
	for k, v := range live {
		scratch.InsertRanked(k.prefix, v, int(k.rank))
	}
	wc, ws, wp, wr, _, _ := scratch.Freeze().Raw()
	gc, gs, gp, gr, _, _ := f.Raw()
	resolve := func(prefixes []netutil.Prefix, ranks []int16, row int32) string {
		if row < 0 {
			return "empty"
		}
		return fmt.Sprintf("%v rank %d", prefixes[row], ranks[row])
	}
	// w is the scratch node at the same path, or -1 where it has none.
	var walk func(path []byte, g, w int32)
	walk = func(path []byte, g, w int32) {
		for b := 0; b < 256; b++ {
			gi := int(g)<<8 | b
			want, wChild := "empty", int32(-1)
			if w >= 0 {
				wi := int(w)<<8 | b
				want = resolve(wp, wr, ws[wi])
				if wc[wi] != 0 {
					wChild = wc[wi]
				}
			}
			if got := resolve(gp, gr, gs[gi]); got != want {
				t.Fatalf("node %v slot %d holds %s, from scratch %s", path, b, got, want)
			}
			switch {
			case gc[gi] != 0:
				walk(append(path[:len(path):len(path)], byte(b)), gc[gi], wChild)
			case wChild >= 0:
				t.Fatalf("node %v slot %d has no child, from scratch it has one", path, b)
			}
		}
	}
	walk(nil, 0, 0)
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

// TestDynamicRemoveRefills removes one key from a node holding several
// and checks what refills each slot it vacated: a covering shorter
// prefix, a nested longer one, or the best of several candidates, by
// rank, then length. Ranks follow the bgp compiler's rule, bits + 64
// for the primary class. Every case ends with the slot oracle.
func TestDynamicRemoveRefills(t *testing.T) {
	type key struct {
		prefix string
		rank   int
	}
	// Slots [from, to] of the node at 10.1 must hold want ("" = empty).
	type slots struct {
		from, to int
		want     key
	}
	cases := []struct {
		name   string
		keys   []key
		remove key
		want   []slots
	}{
		{
			name:   "covering shorter prefix",
			keys:   []key{{"10.1.0.0/17", 17}, {"10.1.7.0/24", 24}, {"10.1.128.0/17", 17}},
			remove: key{"10.1.7.0/24", 24},
			want:   []slots{{0, 127, key{"10.1.0.0/17", 17}}, {128, 255, key{"10.1.128.0/17", 17}}},
		},
		{
			name:   "nested longer prefix",
			keys:   []key{{"10.1.16.0/20", 64 + 20}, {"10.1.20.0/22", 22}, {"10.1.0.0/19", 19}},
			remove: key{"10.1.16.0/20", 64 + 20},
			want: []slots{
				{0, 19, key{"10.1.0.0/19", 19}},
				{20, 23, key{"10.1.20.0/22", 22}},
				{24, 31, key{"10.1.0.0/19", 19}},
				{32, 255, key{}},
			},
		},
		{
			name: "best of several candidates",
			keys: []key{
				{"10.1.5.0/24", 64 + 24}, {"10.1.5.0/24", 24}, {"10.1.0.0/21", 21},
				{"10.1.4.0/22", 64 + 22}, {"10.1.0.0/18", 64 + 18}, {"10.1.0.0/23", 64 + 23},
			},
			remove: key{"10.1.5.0/24", 64 + 24},
			want: []slots{
				{0, 1, key{"10.1.0.0/23", 64 + 23}},
				{2, 3, key{"10.1.0.0/18", 64 + 18}},
				{4, 7, key{"10.1.4.0/22", 64 + 22}},
				{8, 63, key{"10.1.0.0/18", 64 + 18}},
				{64, 255, key{}},
			},
		},
		{
			name: "split span, a different best per part",
			keys: []key{
				{"10.1.0.0/17", 64 + 17}, {"10.1.0.0/18", 18}, {"10.1.64.0/18", 18},
				{"10.1.0.0/20", 20}, {"10.1.48.0/20", 64 + 20},
			},
			remove: key{"10.1.0.0/17", 64 + 17},
			want: []slots{
				{0, 15, key{"10.1.0.0/20", 20}},
				{16, 47, key{"10.1.0.0/18", 18}},
				{48, 63, key{"10.1.48.0/20", 64 + 20}},
				{64, 127, key{"10.1.64.0/18", 18}},
				{128, 255, key{}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDynamic[int]()
			live := make(map[dynKey]int)
			for i, k := range tc.keys {
				p := netutil.MustParsePrefix(k.prefix)
				d.InsertRanked(p, i, k.rank)
				live[dynKey{p, int16(k.rank)}] = i
			}
			d.Freeze()
			p := netutil.MustParsePrefix(tc.remove.prefix)
			if !d.Remove(p, tc.remove.rank) {
				t.Fatalf("Remove(%v, %d) reported absent", p, tc.remove.rank)
			}
			delete(live, dynKey{p, int16(tc.remove.rank)})
			n := d.root.children[10].children[1]
			for i, term := range n.terminals {
				_, base, span := expansion(term.e.prefix)
				if int(term.e.term) != i || term.base != base || term.end != base+span {
					t.Fatalf("terminal %v at %d covers [%d, %d), records index %d, expands to [%d, %d)",
						term.e.prefix, i, term.base, term.end, term.e.term, base, base+span)
				}
			}
			for _, r := range tc.want {
				for slot := r.from; slot <= r.to; slot++ {
					got := key{}
					if e := n.entries[slot]; e != nil {
						got = key{e.prefix.String(), int(e.rank)}
					}
					if got != r.want {
						t.Fatalf("slot %d holds %v, want %v", slot, got, r.want)
					}
				}
			}
			checkSlots(t, d.Freeze(), live)
		})
	}
}

// TestDynamicRemoveShadowed removes an entry visible in no slot: the
// node stays clean and the next freeze appends no block.
func TestDynamicRemoveShadowed(t *testing.T) {
	d := NewDynamic[int]()
	p := netutil.MustParsePrefix("10.1.0.0/17")
	d.InsertRanked(p, 0, 64+17)
	d.InsertRanked(p, 1, 17)
	d.InsertRanked(netutil.MustParsePrefix("10.1.7.0/24"), 2, 24)
	prev := d.Freeze()
	if !d.Remove(p, 17) {
		t.Fatal("Remove of the shadowed key reported absent")
	}
	n := d.root.children[10].children[1]
	if n.dirty || n.stale != (slotMask{}) {
		t.Fatalf("removing a shadowed entry left its node dirty=%v stale=%x", n.dirty, n.stale)
	}
	for depth, l := range d.dirty {
		if len(l) != 0 {
			t.Fatalf("removing a shadowed entry queued %d nodes at depth %d", len(l), depth)
		}
	}
	f := d.Freeze()
	if len(f.children) != len(prev.children) || f.root != prev.root {
		t.Fatalf("freeze after removing a shadowed entry: %d blocks root %d, was %d blocks root %d",
			len(f.children)/256, f.root, len(prev.children)/256, prev.root)
	}
	checkSlots(t, f, map[dynKey]int{{p, 64 + 17}: 0, {netutil.MustParsePrefix("10.1.7.0/24"), 24}: 2})
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
		checkSlots(t, lastFrozen, live)
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
// changed": on a ~2k-node table one single-prefix insert or withdrawal
// plus Freeze appends no more blocks than the path from the root to the
// prefix's node, and an insert allocates well under one full copy
// (8 MiB here).
func TestDynamicFreezeCostsWhatChanged(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDynamic[int]()
	var inserted []netutil.Prefix
	for d.NumNodes() < 2000 {
		bits := 9 + rng.Intn(16)
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32())&netutil.Addr(netutil.MaskOf(bits)), bits)
		if d.InsertRanked(p, 0, bits) {
			inserted = append(inserted, p)
		}
	}
	prev := d.Freeze()
	// appended freezes after edit and reports the blocks it appended, or
	// -1 when the freeze re-rendered the arena.
	appended := func(edit func()) int {
		edit()
		f := d.Freeze()
		added := (len(f.children) - len(prev.children)) / 256
		if &f.children[0] != &prev.children[0] {
			added = -1 // re-rendered: the full cost, paid once per arena
		}
		prev = f
		return added
	}
	var allocs []uint64
	var ms runtime.MemStats
	for trial := 0; trial < 15; trial++ {
		bits := 1 + rng.Intn(32)
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32())&netutil.Addr(netutil.MaskOf(bits)), bits)
		depth, _, _ := expansion(p)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		added := appended(func() { d.InsertRanked(p, trial, bits) })
		runtime.ReadMemStats(&ms)
		if added < 0 {
			continue
		}
		allocs = append(allocs, ms.TotalAlloc-before)
		if added > depth+1 {
			t.Fatalf("trial %d: inserting %v appended %d blocks, want <= %d", trial, p, added, depth+1)
		}
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

	copied := 0
	for trial := 0; trial < 15; trial++ {
		i := rng.Intn(len(inserted))
		p := inserted[i]
		inserted[i] = inserted[len(inserted)-1]
		inserted = inserted[:len(inserted)-1]
		depth, _, _ := expansion(p)
		added := appended(func() { d.Remove(p, p.Bits()) })
		if added < 0 {
			continue
		}
		copied++
		if added > depth+1 {
			t.Fatalf("trial %d: withdrawing %v appended %d blocks, want <= %d", trial, p, added, depth+1)
		}
	}
	if copied < 10 {
		t.Fatalf("only %d of 15 single-prefix withdrawals path-copied", copied)
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

// TestDynamicArenaSwitchUnderReaders drives a Dynamic through full
// renders by every hand-over of the next arena: the spare delivered
// before the switch, the spare still on its way (the switch waits for
// it), a spare filled before nodes were added (every node renders into
// it), and a spare the table outgrew after it was sized (the switch
// allocates inline). Readers meanwhile re-check every pinned generation
// against the answers recorded at its freeze, so under -race a write
// into a published arena shows as a race. FullRenders must advance at
// each switch and at no path copy, and every switch must render what a
// from-scratch Dynamic renders.
func TestDynamicArenaSwitchUnderReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := NewDynamic[int]()
	live := make(map[dynKey]int)
	var keys []dynKey
	insert := func(p netutil.Prefix) {
		k := dynKey{prefix: p, rank: int16(p.Bits())}
		d.InsertRanked(p, len(keys), int(k.rank))
		live[k] = len(keys)
		keys = append(keys, k)
	}
	for d.NumNodes() < 40 {
		insert(randPrefix(rng))
	}
	// edit toggles a key ever inserted: it dirties a path that exists, so
	// the node count holds still.
	edit := func() {
		k := keys[rng.Intn(len(keys))]
		if _, ok := live[k]; ok {
			d.Remove(k.prefix, int(k.rank))
			delete(live, k)
			return
		}
		d.InsertRanked(k.prefix, -len(keys), int(k.rank))
		live[k] = -len(keys)
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
	var probes []netutil.Addr
	for i := 0; i < 500; i++ {
		probes = append(probes, netutil.Addr(rng.Uint32()))
	}
	var (
		mu     sync.Mutex
		gens   []pinned
		stop   = make(chan struct{})
		wg     sync.WaitGroup
		failed atomic.Bool
	)
	// freeze publishes and pins a generation; it reports whether the
	// freeze switched arenas and how long Freeze took.
	prev := d.Freeze()
	freeze := func() (f *Frozen[int], switched bool, took time.Duration) {
		renders := d.FullRenders()
		start := time.Now()
		f = d.Freeze()
		took = time.Since(start)
		switched = &f.children[0] != &prev.children[0]
		want := 0
		if switched {
			want = 1
		}
		if got := d.FullRenders() - renders; got != want {
			t.Fatalf("FullRenders advanced by %d at a freeze that switched=%v", got, switched)
		}
		prev = f
		g := pinned{f: f, want: make([]ans, len(probes))}
		for j, a := range probes {
			p, v, ok := f.Lookup(a)
			g.want[j] = ans{p, v, ok}
		}
		mu.Lock()
		gens = append(gens, g)
		mu.Unlock()
		return f, switched, took
	}
	freeze()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; !failed.Load(); i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				g := gens[i%len(gens)]
				mu.Unlock()
				for j, a := range probes {
					if p, v, ok := g.f.Lookup(a); (ans{p, v, ok}) != g.want[j] {
						t.Errorf("reader: pinned generation answers %v %d %v for %v, recorded %v",
							p, v, ok, a, g.want[j])
						failed.Store(true)
						return
					}
				}
			}
		}()
	}
	// untilTrigger path-copies until the next arena is on its way;
	// untilSwitchDue edits until the pending freeze must switch.
	untilTrigger := func() {
		for d.spare == nil {
			edit()
			if _, switched, _ := freeze(); switched {
				t.Fatal("switched arenas before any spare was on its way")
			}
		}
	}
	untilSwitchDue := func() {
		for edit(); d.pathCopyFits(); edit() {
			freeze()
		}
	}
	// switchTo runs the due switch and checks it rendered from scratch
	// into spare's storage, or into a fresh arena when spare is nil.
	switchTo := func(spare *blockArena) time.Duration {
		t.Helper()
		f, switched, took := freeze()
		if !switched {
			t.Fatal("a freeze past the arena's capacity did not switch")
		}
		if got := &d.arena.children[:1][0]; spare != nil && got != &spare.children[:1][0] {
			t.Fatal("the switch did not render into the spare")
		} else if spare == nil && cap(d.arena.children) != 2*d.numNodes*256 {
			t.Fatalf("inline arena holds %d slots, want %d", cap(d.arena.children), 2*d.numNodes*256)
		}
		checkSlots(t, f, live)
		return took
	}

	// 1. The spare is delivered before the switch, which waits for
	// nothing.
	untilTrigger()
	spare := <-d.spare
	d.spare <- spare
	untilSwitchDue()
	switchTo(&spare)
	if n, total := d.SpareWaits(); n != 0 || total != 0 {
		t.Fatalf("a delivered spare counted %d waits of %v", n, total)
	}

	// 2. The spare is still on its way: the switch waits for it, and
	// counts one wait at least as long as the delay.
	untilTrigger()
	ch := d.spare
	spare = <-ch
	untilSwitchDue()
	const late = 20 * time.Millisecond
	go func() {
		time.Sleep(late)
		ch <- spare
	}()
	if took := switchTo(&spare); took < late {
		t.Fatalf("the switch took %v, before the spare was delivered %v in", took, late)
	}
	if n, total := d.SpareWaits(); n != 1 || total < late {
		t.Fatalf("a spare delivered %v late counted %d waits of %v, want 1 of at least that", late, n, total)
	}

	// 3. Nodes were added after the spare was filled, which moves others
	// from the positions it holds them at.
	untilTrigger()
	spare = <-d.spare
	d.spare <- spare
	newNode := func() {
		for n := d.NumNodes(); d.NumNodes() == n; {
			bits := 17 + rng.Intn(16)
			insert(netutil.PrefixFrom(netutil.Addr(rng.Uint32())&netutil.Addr(netutil.MaskOf(bits)), bits))
		}
	}
	newNode()
	untilSwitchDue()
	switchTo(&spare)

	// 4. The table outgrew the spare between trigger and switch.
	untilTrigger()
	spare = <-d.spare
	d.spare <- spare
	for 2*cap(spare.children) >= 3*d.NumNodes()*256 {
		newNode()
	}
	untilSwitchDue()
	switchTo(nil)
	if d.spare != nil {
		t.Fatal("the outgrown spare is still pending after the switch")
	}
	if n, _ := d.SpareWaits(); n != 1 {
		t.Fatalf("%d spare waits after four switches, want only case 2's", n)
	}

	close(stop)
	wg.Wait()
	if n := d.FullRenders(); n < 5 {
		t.Fatalf("%d full renders, want the first freeze and 4 switches", n)
	}
	for i, g := range gens {
		for j, a := range probes {
			if p, v, ok := g.f.Lookup(a); (ans{p, v, ok}) != g.want[j] {
				t.Fatalf("generation %d answers %v %d %v for %v, recorded %v", i, p, v, ok, a, g.want[j])
			}
		}
	}
}

// NumNodes returns the number of stride-8 nodes, including nodes emptied
// by removals (they stay linked).
func (d *Dynamic[V]) NumNodes() int { return d.numNodes }
