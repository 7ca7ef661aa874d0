package netutil

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xFFFFFFFF, true},
		{"12.34.56.78", AddrFrom4(12, 34, 56, 78), true},
		{"151.198.194.17", AddrFrom4(151, 198, 194, 17), true},
		{"01.02.03.04", AddrFrom4(1, 2, 3, 4), true}, // leading zeros tolerated
		{"", 0, false},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.1.1.1", 0, false},
		{"1.2.3.999", 0, false},
		{"1.2.3.-4", 0, false},
		{"1.2.3.x", 0, false},
		{"1..3.4", 0, false},
		{"1.2.3.4 ", 0, false},
		{"1.2.3.1234", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendDigitsMatchStrconv holds the hand-rolled digit rendering to
// strconv over its whole domain: every octet, and through Prefix.Append
// every prefix length.
func TestAppendDigitsMatchStrconv(t *testing.T) {
	for v := 0; v <= 255; v++ {
		if got, want := string(appendOctet([]byte("x"), byte(v))), "x"+strconv.Itoa(v); got != want {
			t.Fatalf("octet %d rendered %q, want %q", v, got, want)
		}
	}
	for bits := 0; bits <= 32; bits++ {
		p := PrefixFrom(0, bits)
		if got, want := string(p.Append(nil)), "0.0.0.0/"+strconv.Itoa(bits); got != want {
			t.Fatalf("/%d rendered %q, want %q", bits, got, want)
		}
	}
}

func TestAddrAppendMatchesString(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		want := strconv.Itoa(int(v>>24)) + "." + strconv.Itoa(int(v>>16&0xff)) + "." +
			strconv.Itoa(int(v>>8&0xff)) + "." + strconv.Itoa(int(v&0xff))
		return a.String() == want && string(a.Append([]byte("x="))) == "x="+want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrOctets(t *testing.T) {
	a := MustParseAddr("10.20.30.40")
	if o := a.Octets(); o != [4]byte{10, 20, 30, 40} {
		t.Fatalf("Octets = %v", o)
	}
}

func TestAddrClass(t *testing.T) {
	cases := []struct {
		addr  string
		class byte
		plen  int
	}{
		{"9.1.2.3", 'A', 8},
		{"127.255.255.255", 'A', 8},
		{"128.0.0.1", 'B', 16},
		{"151.198.194.17", 'B', 16},
		{"191.255.0.1", 'B', 16},
		{"192.0.0.1", 'C', 24},
		{"203.4.5.6", 'C', 24},
		{"223.255.255.255", 'C', 24},
		{"224.0.0.1", 'D', 32},
		{"239.9.9.9", 'D', 32},
		{"240.0.0.1", 'E', 32},
		{"255.255.255.255", 'E', 32},
	}
	for _, c := range cases {
		a := MustParseAddr(c.addr)
		if got := a.Class(); got != c.class {
			t.Errorf("%s Class = %c, want %c", c.addr, got, c.class)
		}
		if got := a.ClassfulPrefixLen(); got != c.plen {
			t.Errorf("%s ClassfulPrefixLen = %d, want %d", c.addr, got, c.plen)
		}
	}
}

func TestIsUnspecified(t *testing.T) {
	if !MustParseAddr("0.0.0.0").IsUnspecified() {
		t.Error("0.0.0.0 should be unspecified")
	}
	if MustParseAddr("0.0.0.1").IsUnspecified() {
		t.Error("0.0.0.1 should not be unspecified")
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseAddr did not panic on invalid input")
		}
	}()
	MustParseAddr("not an address")
}
