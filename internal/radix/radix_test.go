package radix

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/netaware/netcluster/internal/netutil"
)

func pfx(s string) netutil.Prefix { return netutil.MustParsePrefix(s) }
func addr(s string) netutil.Addr  { return netutil.MustParseAddr(s) }

func TestEmptyTree(t *testing.T) {
	tr := New[int]()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, _, ok := tr.Lookup(addr("1.2.3.4")); ok {
		t.Fatal("lookup in empty tree must miss")
	}
	if _, ok := tr.Get(pfx("10.0.0.0/8")); ok {
		t.Fatal("get in empty tree must miss")
	}
	if tr.Delete(pfx("10.0.0.0/8")) {
		t.Fatal("delete in empty tree must report false")
	}
}

func TestInsertLookupPaperExample(t *testing.T) {
	// The exact example from Section 3.2.1 of the paper.
	tr := New[string]()
	tr.Insert(pfx("12.65.128.0/19"), "att")
	tr.Insert(pfx("24.48.2.0/23"), "cable")
	cases := []struct {
		ip   string
		want string
	}{
		{"12.65.147.94", "12.65.128.0/19"},
		{"12.65.147.149", "12.65.128.0/19"},
		{"12.65.146.207", "12.65.128.0/19"},
		{"12.65.144.247", "12.65.128.0/19"},
		{"24.48.3.87", "24.48.2.0/23"},
		{"24.48.2.166", "24.48.2.0/23"},
	}
	for _, c := range cases {
		p, _, ok := tr.Lookup(addr(c.ip))
		if !ok || p.String() != c.want {
			t.Errorf("Lookup(%s) = %v ok=%v, want %s", c.ip, p, ok, c.want)
		}
	}
	if _, _, ok := tr.Lookup(addr("99.99.99.99")); ok {
		t.Error("address outside all prefixes must not match")
	}
}

func TestLongestMatchWins(t *testing.T) {
	tr := New[int]()
	tr.Insert(pfx("10.0.0.0/8"), 8)
	tr.Insert(pfx("10.1.0.0/16"), 16)
	tr.Insert(pfx("10.1.2.0/24"), 24)
	tr.Insert(pfx("10.1.2.128/25"), 25)
	cases := []struct {
		ip   string
		want int
	}{
		{"10.2.0.1", 8},
		{"10.1.9.1", 16},
		{"10.1.2.5", 24},
		{"10.1.2.200", 25},
	}
	for _, c := range cases {
		_, v, ok := tr.Lookup(addr(c.ip))
		if !ok || v != c.want {
			t.Errorf("Lookup(%s) = %d ok=%v, want %d", c.ip, v, ok, c.want)
		}
	}
}

func TestDefaultRoute(t *testing.T) {
	tr := New[string]()
	tr.Insert(pfx("0.0.0.0/0"), "default")
	tr.Insert(pfx("10.0.0.0/8"), "ten")
	if _, v, ok := tr.Lookup(addr("99.1.2.3")); !ok || v != "default" {
		t.Errorf("default route lookup = %q ok=%v", v, ok)
	}
	if _, v, _ := tr.Lookup(addr("10.1.2.3")); v != "ten" {
		t.Errorf("specific beats default: got %q", v)
	}
}

func TestInsertReplace(t *testing.T) {
	tr := New[int]()
	if !tr.Insert(pfx("10.0.0.0/8"), 1) {
		t.Fatal("first insert must report new")
	}
	if tr.Insert(pfx("10.0.0.0/8"), 2) {
		t.Fatal("second insert must report replace")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if v, ok := tr.Get(pfx("10.0.0.0/8")); !ok || v != 2 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
}

func TestHostRoutes(t *testing.T) {
	tr := New[int]()
	tr.Insert(pfx("1.2.3.4/32"), 1)
	tr.Insert(pfx("1.2.3.0/24"), 2)
	if _, v, _ := tr.Lookup(addr("1.2.3.4")); v != 1 {
		t.Errorf("host route must win: got %d", v)
	}
	if _, v, _ := tr.Lookup(addr("1.2.3.5")); v != 2 {
		t.Errorf("neighbour must hit /24: got %d", v)
	}
}

func TestDelete(t *testing.T) {
	tr := New[int]()
	ps := []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "11.0.0.0/8", "10.128.0.0/9"}
	for i, s := range ps {
		tr.Insert(pfx(s), i)
	}
	if !tr.Delete(pfx("10.1.0.0/16")) {
		t.Fatal("delete existing must report true")
	}
	if tr.Delete(pfx("10.1.0.0/16")) {
		t.Fatal("double delete must report false")
	}
	if tr.Len() != len(ps)-1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, v, _ := tr.Lookup(addr("10.1.9.9")); v != 0 {
		t.Errorf("after deleting /16, lookup must fall back to /8, got %d", v)
	}
	if _, v, _ := tr.Lookup(addr("10.1.2.3")); v != 2 {
		t.Errorf("deleting /16 must not disturb /24 below it, got %d", v)
	}
}

func TestWalkOrderAndCount(t *testing.T) {
	tr := New[int]()
	ins := []string{"192.168.0.0/16", "10.0.0.0/8", "10.1.0.0/16", "172.16.0.0/12", "10.1.2.0/24"}
	for i, s := range ins {
		tr.Insert(pfx(s), i)
	}
	var got []netutil.Prefix
	tr.Walk(func(p netutil.Prefix, _ int) bool {
		got = append(got, p)
		return true
	})
	if len(got) != len(ins) {
		t.Fatalf("walk visited %d, want %d", len(got), len(ins))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return netutil.ComparePrefix(got[i], got[j]) < 0 }) {
		t.Errorf("walk order not sorted: %v", got)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 10; i++ {
		tr.Insert(netutil.PrefixFrom(netutil.AddrFrom4(byte(i+1), 0, 0, 0), 8), i)
	}
	n := 0
	tr.Walk(func(netutil.Prefix, int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("walk visited %d after early stop, want 3", n)
	}
}

func TestCovering(t *testing.T) {
	tr := New[int]()
	tr.Insert(pfx("0.0.0.0/0"), 0)
	tr.Insert(pfx("10.0.0.0/8"), 1)
	tr.Insert(pfx("10.1.0.0/16"), 2)
	tr.Insert(pfx("10.1.2.0/24"), 3)
	cov := tr.Covering(addr("10.1.2.3"))
	want := []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"}
	if len(cov) != len(want) {
		t.Fatalf("Covering = %v", cov)
	}
	for i := range cov {
		if cov[i].String() != want[i] {
			t.Errorf("Covering[%d] = %v, want %s", i, cov[i], want[i])
		}
	}
}

// TestAgainstLinearScan cross-checks trie lookups against a brute-force
// linear longest-match over a random prefix population.
func TestAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := New[int]()
	ref := map[netutil.Prefix]int{}
	for i := 0; i < 3000; i++ {
		bits := 8 + rng.Intn(25) // /8../32
		p := netutil.PrefixFrom(netutil.Addr(rng.Uint32()), bits)
		tr.Insert(p, i)
		ref[p] = i
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, ref has %d", tr.Len(), len(ref))
	}
	linear := func(a netutil.Addr) (netutil.Prefix, int, bool) {
		best, bv, found := netutil.Prefix{}, 0, false
		for p, v := range ref {
			if p.Contains(a) && (!found || p.Bits() > best.Bits()) {
				best, bv, found = p, v, true
			}
		}
		return best, bv, found
	}
	for i := 0; i < 5000; i++ {
		a := netutil.Addr(rng.Uint32())
		if i%3 == 0 { // bias toward hits: probe near a stored prefix
			for p := range ref {
				a = p.Addr() | netutil.Addr(rng.Uint32())&^netutil.Addr(netutil.MaskOf(p.Bits()))
				break
			}
		}
		wp, wv, wok := linear(a)
		gp, gv, gok := tr.Lookup(a)
		if wok != gok || wp != gp || wv != gv {
			t.Fatalf("Lookup(%v): trie = (%v,%d,%v), linear = (%v,%d,%v)", a, gp, gv, gok, wp, wv, wok)
		}
	}
}

// TestRandomInsertDelete exercises delete-heavy churn and verifies the trie
// stays consistent with a map-based reference model.
func TestRandomInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New[int]()
	ref := map[netutil.Prefix]int{}
	pool := make([]netutil.Prefix, 0, 512)
	for step := 0; step < 20000; step++ {
		if rng.Intn(3) != 0 || len(pool) == 0 { // insert
			p := netutil.PrefixFrom(netutil.Addr(rng.Uint32()), 4+rng.Intn(29))
			tr.Insert(p, step)
			if _, dup := ref[p]; !dup {
				pool = append(pool, p)
			}
			ref[p] = step
		} else { // delete
			i := rng.Intn(len(pool))
			p := pool[i]
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			_, inRef := ref[p]
			if got := tr.Delete(p); got != inRef {
				t.Fatalf("Delete(%v) = %v, ref has %v", p, got, inRef)
			}
			delete(ref, p)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, ref = %d", step, tr.Len(), len(ref))
		}
	}
	// Final cross-check on lookups.
	for i := 0; i < 2000; i++ {
		a := netutil.Addr(rng.Uint32())
		_, _, gok := tr.Lookup(a)
		wok := false
		for p := range ref {
			if p.Contains(a) {
				wok = true
				break
			}
		}
		if gok != wok {
			t.Fatalf("Lookup(%v) hit=%v, ref hit=%v", a, gok, wok)
		}
	}
}

// Property: for any set of prefixes, the looked-up prefix always contains
// the address and no stored prefix longer than it does.
func TestLookupIsLongestProperty(t *testing.T) {
	f := func(seeds []uint32, probe uint32) bool {
		tr := New[struct{}]()
		stored := map[netutil.Prefix]bool{}
		for i, s := range seeds {
			p := netutil.PrefixFrom(netutil.Addr(s), (i%25)+8)
			tr.Insert(p, struct{}{})
			stored[p] = true
		}
		a := netutil.Addr(probe)
		got, _, ok := tr.Lookup(a)
		if !ok {
			for p := range stored {
				if p.Contains(a) {
					return false // missed an existing match
				}
			}
			return true
		}
		if !got.Contains(a) || !stored[got] {
			return false
		}
		for p := range stored {
			if p.Contains(a) && p.Bits() > got.Bits() {
				return false // not the longest
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixesMatchesWalk(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Insert(netutil.PrefixFrom(netutil.AddrFrom4(byte(i), byte(i*3), 0, 0), 16), i)
	}
	ps := tr.Prefixes()
	if len(ps) != tr.Len() {
		t.Fatalf("Prefixes len = %d, tree len = %d", len(ps), tr.Len())
	}
}

// Delete removes the value for exactly p, reporting whether it was present.
// Structural nodes left without values or branching purpose are pruned so
// repeated insert/delete cycles do not leak memory.
func (t *Tree[V]) Delete(p netutil.Prefix) bool {
	var parent *node[V]
	n := t.root
	for n != nil && n.prefix.ContainsPrefix(p) {
		if n.prefix == p {
			if !n.hasValue {
				return false
			}
			var zero V
			n.value, n.hasValue = zero, false
			t.size--
			t.prune(parent, n)
			return true
		}
		parent = n
		if bitAt(p.Addr(), n.prefix.Bits()) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	return false
}

// Prefixes returns all stored prefixes in walk order.
func (t *Tree[V]) Prefixes() []netutil.Prefix {
	out := make([]netutil.Prefix, 0, t.size)
	t.Walk(func(p netutil.Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}

// Covering returns the stored prefixes that contain addr, least specific
// first — the full match chain a router would consider before choosing the
// longest. Useful for diagnosing aggregation-induced mis-clustering.
func (t *Tree[V]) Covering(addr netutil.Addr) []netutil.Prefix {
	var out []netutil.Prefix
	n := t.root
	for n != nil && n.prefix.Contains(addr) {
		if n.hasValue {
			out = append(out, n.prefix)
		}
		if n.prefix.Bits() == 32 {
			break
		}
		if bitAt(addr, n.prefix.Bits()) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	return out
}

// prune removes n if it is now a valueless leaf, or splices it out if it is
// a valueless one-child branch. parent may be nil only when n is the root,
// which is never pruned.
func (t *Tree[V]) prune(parent, n *node[V]) {
	if parent == nil || n.hasValue {
		return
	}
	switch {
	case n.left == nil && n.right == nil:
		if parent.left == n {
			parent.left = nil
		} else {
			parent.right = nil
		}
		// The parent may itself have become a splice-able branch; one
		// level of cleanup is enough to keep the structure tight because
		// parents above still branch or hold values by construction.
		if parent != t.root && !parent.hasValue {
			t.spliceSingleChild(parent)
		}
	case n.left == nil:
		t.replaceChild(parent, n, n.right)
	case n.right == nil:
		t.replaceChild(parent, n, n.left)
	}
}

func (t *Tree[V]) spliceSingleChild(n *node[V]) {
	var only *node[V]
	switch {
	case n.left != nil && n.right == nil:
		only = n.left
	case n.right != nil && n.left == nil:
		only = n.right
	default:
		return
	}
	if p := t.findParent(n); p != nil {
		t.replaceChild(p, n, only)
	}
}

func (t *Tree[V]) findParent(target *node[V]) *node[V] {
	n := t.root
	for n != nil {
		if n.left == target || n.right == target {
			return n
		}
		if !n.prefix.ContainsPrefix(target.prefix) {
			return nil
		}
		if bitAt(target.prefix.Addr(), n.prefix.Bits()) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	return nil
}

func (t *Tree[V]) replaceChild(parent, old, new_ *node[V]) {
	if parent.left == old {
		parent.left = new_
	} else if parent.right == old {
		parent.right = new_
	}
}
