package radix

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/netaware/netcluster/internal/netutil"
)

func TestMultibitPaperExample(t *testing.T) {
	m := NewMultibit[string]()
	m.Insert(pfx("12.65.128.0/19"), "att")
	m.Insert(pfx("24.48.2.0/23"), "cable")
	cases := []struct{ ip, want string }{
		{"12.65.147.94", "12.65.128.0/19"},
		{"12.65.144.247", "12.65.128.0/19"},
		{"24.48.3.87", "24.48.2.0/23"},
		{"24.48.2.166", "24.48.2.0/23"},
	}
	for _, c := range cases {
		p, _, ok := m.Lookup(addr(c.ip))
		if !ok || p.String() != c.want {
			t.Errorf("Lookup(%s) = %v ok=%v, want %s", c.ip, p, ok, c.want)
		}
	}
	if _, _, ok := m.Lookup(addr("99.99.99.99")); ok {
		t.Error("non-covered address matched")
	}
}

func TestMultibitLongestWins(t *testing.T) {
	m := NewMultibit[int]()
	m.Insert(pfx("0.0.0.0/0"), 0)
	m.Insert(pfx("10.0.0.0/8"), 8)
	m.Insert(pfx("10.1.0.0/16"), 16)
	m.Insert(pfx("10.1.2.0/24"), 24)
	m.Insert(pfx("10.1.2.128/25"), 25)
	m.Insert(pfx("10.1.2.240/28"), 28)
	m.Insert(pfx("10.1.2.250/32"), 32)
	cases := []struct {
		ip   string
		want int
	}{
		{"99.0.0.1", 0},
		{"10.2.0.1", 8},
		{"10.1.9.1", 16},
		{"10.1.2.5", 24},
		{"10.1.2.129", 25},
		{"10.1.2.241", 28},
		{"10.1.2.250", 32},
	}
	for _, c := range cases {
		_, v, ok := m.Lookup(addr(c.ip))
		if !ok || v != c.want {
			t.Errorf("Lookup(%s) = %d ok=%v, want %d", c.ip, v, ok, c.want)
		}
	}
	if m.Len() != 7 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMultibitReplace(t *testing.T) {
	m := NewMultibit[int]()
	if !m.Insert(pfx("10.0.0.0/8"), 1) {
		t.Fatal("first insert must be new")
	}
	if m.Insert(pfx("10.0.0.0/8"), 2) {
		t.Fatal("second insert must replace")
	}
	if _, v, _ := m.Lookup(addr("10.1.2.3")); v != 2 {
		t.Fatalf("value = %d", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMultibitInsertionOrderIrrelevant(t *testing.T) {
	// Shorter-then-longer and longer-then-shorter must agree.
	a := NewMultibit[int]()
	a.Insert(pfx("10.0.0.0/8"), 8)
	a.Insert(pfx("10.1.0.0/16"), 16)
	b := NewMultibit[int]()
	b.Insert(pfx("10.1.0.0/16"), 16)
	b.Insert(pfx("10.0.0.0/8"), 8)
	for _, ip := range []string{"10.1.2.3", "10.2.2.3"} {
		_, va, _ := a.Lookup(addr(ip))
		_, vb, _ := b.Lookup(addr(ip))
		if va != vb {
			t.Fatalf("order-dependent result for %s: %d vs %d", ip, va, vb)
		}
	}
}

// TestMultibitMatchesPatricia cross-checks the two engines over random
// tables: identical results for every probe.
func TestMultibitMatchesPatricia(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tree := New[int]()
	multi := NewMultibit[int]()
	for i := 0; i < 4000; i++ {
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32()), rng.Intn(33))
		tree.Insert(p, i)
		multi.Insert(p, i)
	}
	if tree.Len() != multi.Len() {
		t.Fatalf("sizes differ: %d vs %d", tree.Len(), multi.Len())
	}
	for i := 0; i < 20000; i++ {
		a := netutil.Addr(rng.Uint32())
		tp, tv, tok := tree.Lookup(a)
		mp, mv, mok := multi.Lookup(a)
		if tok != mok || tp != mp || tv != mv {
			t.Fatalf("Lookup(%v): patricia (%v,%d,%v) vs multibit (%v,%d,%v)",
				a, tp, tv, tok, mp, mv, mok)
		}
	}
}

func TestMultibitProperty(t *testing.T) {
	f := func(seeds []uint32, probe uint32) bool {
		tree := New[struct{}]()
		multi := NewMultibit[struct{}]()
		for i, s := range seeds {
			p := netutil.PrefixFrom(netutil.Addr(s), (i*7)%33)
			tree.Insert(p, struct{}{})
			multi.Insert(p, struct{}{})
		}
		a := netutil.Addr(probe)
		tp, _, tok := tree.Lookup(a)
		mp, _, mok := multi.Lookup(a)
		return tok == mok && tp == mp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestMultibitEmpty(t *testing.T) {
	m := NewMultibit[int]()
	if _, _, ok := m.Lookup(addr("1.2.3.4")); ok {
		t.Fatal("empty table matched")
	}
	if m.Len() != 0 {
		t.Fatal("empty table has size")
	}
}

// Len returns the number of distinct prefixes inserted.
func (m *Multibit[V]) Len() int { return m.size }

// Lookup returns the highest-ranked stored prefix containing addr. With
// Insert's rank = bits convention that is the longest match.
func (m *Multibit[V]) Lookup(addr netutil.Addr) (netutil.Prefix, V, bool) {
	octets := addr.Octets()
	var best *mbEntry[V]
	n := &m.root
	for level := 0; level < 4; level++ {
		b := octets[level]
		if e := n.entries[b]; e != nil && (best == nil || best.rank <= e.rank) {
			best = e
		}
		next := n.children[b]
		if next == nil {
			break
		}
		n = next
	}
	if best == nil {
		var zero V
		return netutil.Prefix{}, zero, false
	}
	return best.prefix, best.value, true
}
