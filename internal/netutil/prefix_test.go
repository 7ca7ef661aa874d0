package netutil

import (
	"encoding/json"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestMaskOf(t *testing.T) {
	cases := []struct {
		bits int
		want uint32
	}{
		{0, 0},
		{1, 0x80000000},
		{8, 0xFF000000},
		{16, 0xFFFF0000},
		{19, 0xFFFFE000},
		{24, 0xFFFFFF00},
		{28, 0xFFFFFFF0},
		{32, 0xFFFFFFFF},
		{-3, 0},          // clamped
		{40, 0xFFFFFFFF}, // clamped
	}
	for _, c := range cases {
		if got := MaskOf(c.bits); got != c.want {
			t.Errorf("MaskOf(%d) = %#x, want %#x", c.bits, got, c.want)
		}
	}
}

func TestMaskLen(t *testing.T) {
	for bits := 0; bits <= 32; bits++ {
		got, err := MaskLen(Addr(MaskOf(bits)))
		if err != nil || got != bits {
			t.Errorf("MaskLen(MaskOf(%d)) = %d, %v", bits, got, err)
		}
	}
	for _, bad := range []string{"255.0.255.0", "0.255.0.0", "255.255.0.255", "128.128.0.0"} {
		if _, err := MaskLen(MustParseAddr(bad)); err == nil {
			t.Errorf("MaskLen(%s) should fail: non-contiguous", bad)
		}
	}
}

func TestPrefixCanonicalization(t *testing.T) {
	p := PrefixFrom(MustParseAddr("12.65.147.94"), 19)
	if p.Addr() != MustParseAddr("12.65.128.0") {
		t.Errorf("canonical addr = %v, want 12.65.128.0", p.Addr())
	}
	if p.String() != "12.65.128.0/19" {
		t.Errorf("String = %q", p.String())
	}
	if p.StringNetmask() != "12.65.128.0/255.255.224.0" {
		t.Errorf("StringNetmask = %q", p.StringNetmask())
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("12.65.128.0/19")
	for _, in := range []string{"12.65.128.0", "12.65.147.94", "12.65.159.255"} {
		if !p.Contains(MustParseAddr(in)) {
			t.Errorf("%v should contain %s", p, in)
		}
	}
	for _, out := range []string{"12.65.160.0", "12.65.127.255", "12.66.128.1", "13.65.128.1"} {
		if p.Contains(MustParseAddr(out)) {
			t.Errorf("%v should not contain %s", p, out)
		}
	}
	// Paper's motivating /28 example: three neighbouring /28s are distinct.
	for _, c := range []struct{ host, pfx string }{
		{"151.198.194.17", "151.198.194.16/28"},
		{"151.198.194.34", "151.198.194.32/28"},
		{"151.198.194.50", "151.198.194.48/28"},
	} {
		pfx := MustParsePrefix(c.pfx)
		if !pfx.Contains(MustParseAddr(c.host)) {
			t.Errorf("%s should contain %s", c.pfx, c.host)
		}
	}
	if MustParsePrefix("151.198.194.16/28").Contains(MustParseAddr("151.198.194.34")) {
		t.Error(".16/28 must not contain .34")
	}
}

func TestPrefixFirstLastNumAddrs(t *testing.T) {
	p := MustParsePrefix("24.48.2.0/23")
	if p.First() != MustParseAddr("24.48.2.0") {
		t.Errorf("First = %v", p.First())
	}
	if p.Last() != MustParseAddr("24.48.3.255") {
		t.Errorf("Last = %v", p.Last())
	}
	if p.NumAddrs() != 512 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
	all := MustParsePrefix("0.0.0.0/0")
	if all.NumAddrs() != 1<<32 {
		t.Errorf("/0 NumAddrs = %d", all.NumAddrs())
	}
	host := MustParsePrefix("1.2.3.4/32")
	if host.NumAddrs() != 1 || host.First() != host.Last() {
		t.Error("/32 should cover exactly one address")
	}
}

func TestPrefixOverlapsAndContainsPrefix(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.1.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("10/8 and 10.1/16 must overlap")
	}
	if a.Overlaps(c) {
		t.Error("10/8 and 11/8 must not overlap")
	}
	if !a.ContainsPrefix(b) {
		t.Error("10/8 must contain 10.1/16")
	}
	if b.ContainsPrefix(a) {
		t.Error("10.1/16 must not contain 10/8")
	}
	if !a.ContainsPrefix(a) {
		t.Error("ContainsPrefix is non-strict")
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, bad := range []string{"", "1.2.3.4", "1.2.3.4/", "1.2.3.4/33", "1.2.3.4/-1", "1.2.3/24", "a.b.c.d/8", "1.2.3.4/x"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) should fail", bad)
		}
	}
}

func TestSiblingParentHalves(t *testing.T) {
	p := MustParsePrefix("24.48.2.0/23")
	if s := p.Sibling(); s != MustParsePrefix("24.48.0.0/23") {
		t.Errorf("Sibling = %v", s)
	}
	if par := p.Parent(); par != MustParsePrefix("24.48.0.0/22") {
		t.Errorf("Parent = %v", par)
	}
	lo, hi := p.Halves()
	if lo != MustParsePrefix("24.48.2.0/24") || hi != MustParsePrefix("24.48.3.0/24") {
		t.Errorf("Halves = %v, %v", lo, hi)
	}
}

func TestSiblingIsInvolution(t *testing.T) {
	f := func(v uint32, bitsRaw uint8) bool {
		bits := int(bitsRaw%32) + 1 // 1..32
		p := PrefixFrom(Addr(v), bits)
		s := p.Sibling()
		return s.Sibling() == p && s != p && s.Parent() == p.Parent()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHalvesPartitionParent(t *testing.T) {
	f := func(v uint32, bitsRaw uint8) bool {
		bits := int(bitsRaw % 32) // 0..31
		p := PrefixFrom(Addr(v), bits)
		lo, hi := p.Halves()
		if lo.Parent() != p || hi.Parent() != p {
			return false
		}
		if lo.Overlaps(hi) {
			return false
		}
		return lo.NumAddrs()+hi.NumAddrs() == p.NumAddrs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContainsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		p := PrefixFrom(Addr(rng.Uint32()), rng.Intn(33))
		a := Addr(rng.Uint32())
		brute := uint64(a) >= uint64(p.First()) && uint64(a) <= uint64(p.Last())
		if p.Contains(a) != brute {
			t.Fatalf("Contains(%v, %v) = %v, brute force = %v", p, a, p.Contains(a), brute)
		}
	}
}

func TestComparePrefix(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.0.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if ComparePrefix(a, b) >= 0 {
		t.Error("shorter prefix with same base must sort first")
	}
	if ComparePrefix(b, c) >= 0 {
		t.Error("lower base must sort first")
	}
	if ComparePrefix(a, a) != 0 {
		t.Error("equal prefixes must compare 0")
	}
	if ComparePrefix(c, a) <= 0 {
		t.Error("comparison must be antisymmetric")
	}
}

func TestPrefixIsZero(t *testing.T) {
	if !MustParsePrefix("0.0.0.0/0").IsZero() {
		t.Error("/0 should be zero")
	}
	if MustParsePrefix("0.0.0.0/1").IsZero() {
		t.Error("0.0.0.0/1 is not the zero prefix")
	}
}

func TestCommonPrefix(t *testing.T) {
	cases := []struct {
		addrs []string
		want  string
	}{
		{[]string{"10.0.0.1"}, "10.0.0.1/32"},
		{[]string{"10.0.0.1", "10.0.0.2"}, "10.0.0.0/30"},
		{[]string{"12.65.147.94", "12.65.144.247"}, "12.65.144.0/22"},
		{[]string{"10.0.0.1", "192.168.0.1"}, "0.0.0.0/0"},
		{[]string{"10.0.0.1", "128.0.0.1"}, "0.0.0.0/0"},
		{[]string{"1.2.3.4", "1.2.3.4", "1.2.3.4"}, "1.2.3.4/32"},
	}
	for _, c := range cases {
		addrs := make([]Addr, len(c.addrs))
		for i, s := range c.addrs {
			addrs[i] = MustParseAddr(s)
		}
		if got := CommonPrefix(addrs); got.String() != c.want {
			t.Errorf("CommonPrefix(%v) = %v, want %s", c.addrs, got, c.want)
		}
	}
}

func TestCommonPrefixContainsAll(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		addrs := make([]Addr, len(raw))
		for i, v := range raw {
			addrs[i] = Addr(v)
		}
		p := CommonPrefix(addrs)
		for _, a := range addrs {
			if !p.Contains(a) {
				return false
			}
		}
		// Longest: the one-bit-longer child containing addrs[0] must
		// exclude at least one address (unless p is already /32).
		if p.Bits() == 32 {
			return true
		}
		child := PrefixFrom(addrs[0], p.Bits()+1)
		for _, a := range addrs {
			if !child.Contains(a) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("PrefixFrom(33)", func() { PrefixFrom(0, 33) })
	mustPanic("CommonPrefix(empty)", func() { CommonPrefix(nil) })
	mustPanic("Sibling on /0", func() { MustParsePrefix("0.0.0.0/0").Sibling() })
	mustPanic("Parent on /0", func() { MustParsePrefix("0.0.0.0/0").Parent() })
	mustPanic("Halves on /32", func() { MustParsePrefix("1.2.3.4/32").Halves() })
}

func TestOverlapsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 5000; i++ {
		p := PrefixFrom(Addr(rng.Uint32()), rng.Intn(33))
		var q Prefix
		if i%2 == 0 {
			q = PrefixFrom(Addr(rng.Uint32()), rng.Intn(33))
		} else {
			// Bias toward overlap: base q inside p.
			q = PrefixFrom(p.Addr()|Addr(rng.Uint32())&^Addr(MaskOf(p.Bits())), rng.Intn(33))
		}
		brute := uint64(p.First()) <= uint64(q.Last()) && uint64(q.First()) <= uint64(p.Last())
		if p.Overlaps(q) != brute {
			t.Fatalf("Overlaps(%v, %v) = %v, brute = %v", p, q, p.Overlaps(q), brute)
		}
		if p.Overlaps(q) != q.Overlaps(p) {
			t.Fatalf("Overlaps not symmetric for %v, %v", p, q)
		}
	}
}

func TestPrefixTextRoundTrip(t *testing.T) {
	// JSON must carry prefixes as CIDR strings, both as struct fields and
	// as map keys.
	p := MustParsePrefix("10.20.32.0/19")
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"10.20.32.0/19"` {
		t.Fatalf("marshal: %s", b)
	}
	var q Prefix
	if err := json.Unmarshal(b, &q); err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("round trip: %v != %v", q, p)
	}
	m := map[Prefix]int{p: 3}
	mb, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("map key marshal: %v", err)
	}
	var m2 map[Prefix]int
	if err := json.Unmarshal(mb, &m2); err != nil || m2[p] != 3 {
		t.Fatalf("map key round trip: %v %v", m2, err)
	}
	if err := q.UnmarshalText([]byte("not-a-prefix")); err == nil {
		t.Fatal("garbage must not parse")
	}
}

func TestPrefixAppendMatchesString(t *testing.T) {
	buf := []byte("x=")
	for bits := 0; bits <= 32; bits++ {
		p := PrefixFrom(MustParseAddr("255.255.255.255"), bits)
		got := p.Append(buf[:2])
		if want := "x=" + p.Addr().String() + "/" + strconv.Itoa(bits); string(got) != want || p.String() != want[2:] {
			t.Fatalf("/%d: Append %q, String %q, want %q", bits, got, p.String(), want)
		}
		if q, err := ParsePrefix(string(got[2:])); err != nil || q != p {
			t.Fatalf("/%d: %q does not parse back: %v %v", bits, got[2:], q, err)
		}
	}
}

// Overlaps reports whether p and q share any address, which for prefixes
// means one contains the other's base address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.bits <= q.bits {
		return p.Contains(q.addr)
	}
	return q.Contains(p.addr)
}

// StringNetmask renders p in the dotted prefix/netmask notation that several
// 1999-era routing-table dumps use ("12.65.128.0/255.255.224.0").
func (p Prefix) StringNetmask() string {
	return p.addr.String() + "/" + Addr(MaskOf(int(p.bits))).String()
}
