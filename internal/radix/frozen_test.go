package radix

import (
	"math/rand"
	"testing"

	"github.com/netaware/netcluster/internal/netutil"
)

func TestFrozenMatchesMultibit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	multi := NewMultibit[int]()
	for i := 0; i < 4000; i++ {
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32()), rng.Intn(33))
		multi.Insert(p, i)
	}
	f := multi.Freeze()
	if f.Len() != multi.Len() {
		t.Fatalf("sizes differ: frozen %d vs multibit %d", f.Len(), multi.Len())
	}
	for i := 0; i < 20000; i++ {
		a := netutil.Addr(rng.Uint32())
		mp, mv, mok := multi.Lookup(a)
		fp, fv, fok := f.Lookup(a)
		if mok != fok || mp != fp || mv != fv {
			t.Fatalf("Lookup(%v): multibit (%v,%d,%v) vs frozen (%v,%d,%v)",
				a, mp, mv, mok, fp, fv, fok)
		}
	}
}

func TestFrozenRankedPrecedence(t *testing.T) {
	// Simulate the bgp.Compiled use: a "primary" class biased by 64 must
	// beat a longer "secondary" prefix, and within a class longer wins.
	m := NewMultibit[string]()
	m.InsertRanked(pfx("10.0.0.0/8"), "primary-8", 64+8)
	m.InsertRanked(pfx("10.1.0.0/16"), "secondary-16", 16)
	m.InsertRanked(pfx("10.1.2.0/24"), "primary-24", 64+24)
	m.InsertRanked(pfx("99.0.0.0/8"), "secondary-8", 8)
	cases := []struct{ ip, want string }{
		{"10.1.3.4", "primary-8"},  // class bias beats the longer /16
		{"10.1.2.9", "primary-24"}, // longer primary beats shorter primary
		{"10.9.9.9", "primary-8"},
		{"99.1.2.3", "secondary-8"}, // secondary only when no primary covers
	}
	for _, c := range cases {
		for name, look := range map[string]func(netutil.Addr) (netutil.Prefix, string, bool){
			"multibit": m.Lookup,
			"frozen":   m.Freeze().Lookup,
		} {
			_, v, ok := look(addr(c.ip))
			if !ok || v != c.want {
				t.Errorf("%s Lookup(%s) = %q ok=%v, want %q", name, c.ip, v, ok, c.want)
			}
		}
	}
}

func TestFrozenRankedSameSlotKeepsHigherRank(t *testing.T) {
	// The same prefix in both classes: the later, lower-ranked insert must
	// not displace the higher-ranked entry already in the slot.
	m := NewMultibit[string]()
	m.InsertRanked(pfx("10.0.0.0/8"), "primary", 64+8)
	m.InsertRanked(pfx("10.0.0.0/8"), "secondary", 8)
	if _, v, ok := m.Freeze().Lookup(addr("10.1.2.3")); !ok || v != "primary" {
		t.Fatalf("Lookup = %q ok=%v, want primary", v, ok)
	}
	// Reverse order: the higher rank arriving second replaces.
	m2 := NewMultibit[string]()
	m2.InsertRanked(pfx("10.0.0.0/8"), "secondary", 8)
	m2.InsertRanked(pfx("10.0.0.0/8"), "primary", 64+8)
	if _, v, ok := m2.Freeze().Lookup(addr("10.1.2.3")); !ok || v != "primary" {
		t.Fatalf("reversed Lookup = %q ok=%v, want primary", v, ok)
	}
}

func TestFrozenEmpty(t *testing.T) {
	f := NewMultibit[int]().Freeze()
	if _, _, ok := f.Lookup(addr("1.2.3.4")); ok {
		t.Fatal("empty frozen table matched")
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d", f.Len())
	}
	if f.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1 (root only)", f.NumNodes())
	}
}

func TestFrozenConcurrentReaders(t *testing.T) {
	// Run under -race in make check: unlimited readers, no locks.
	rng := rand.New(rand.NewSource(5))
	m := NewMultibit[int]()
	for i := 0; i < 500; i++ {
		m.Insert(netutil.PrefixFrom(netutil.Addr(rng.Uint32()), 8+rng.Intn(25)), i)
	}
	f := m.Freeze()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				a := netutil.Addr(r.Uint32())
				fp, fv, fok := f.Lookup(a)
				mp, mv, mok := m.Lookup(a)
				if fok != mok || fp != mp || fv != mv {
					t.Errorf("concurrent Lookup(%v) diverged", a)
					return
				}
			}
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// Len returns the number of distinct prefixes in the table.
func (f *Frozen[V]) Len() int { return f.size }

// Entry resolves an entry row returned by LookupBatch to its stored
// prefix and value. Rows are stable for the lifetime of the Frozen.
func (f *Frozen[V]) Entry(row int32) (netutil.Prefix, V) {
	return f.prefixes[row], f.values[row]
}
