package netutil

import (
	"fmt"
	"strconv"
	"strings"
)

// Prefix is an IPv4 network prefix: a base address plus a mask length in
// [0, 32]. The base address is always stored canonically, i.e. with all host
// bits cleared, so Prefix values are directly comparable and usable as map
// keys — two routing-table entries describe the same network exactly when
// their Prefix values are equal.
type Prefix struct {
	addr Addr
	bits int8
}

// PrefixFrom returns the canonical prefix covering addr with the given mask
// length. Host bits in addr are cleared. It panics if bits is outside
// [0, 32]; use ParsePrefix for untrusted input.
func PrefixFrom(addr Addr, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("netutil: prefix length %d out of range", bits))
	}
	return Prefix{addr: addr & Addr(MaskOf(bits)), bits: int8(bits)}
}

// Addr returns the canonical (host-bits-zero) base address of p.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns p's mask length.
func (p Prefix) Bits() int { return int(p.bits) }

// Contains reports whether a falls inside p.
func (p Prefix) Contains(a Addr) bool {
	return a&Addr(MaskOf(int(p.bits))) == p.addr
}

// Overlaps reports whether p and q share any address, which for prefixes
// means one contains the other's base address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.bits <= q.bits {
		return p.Contains(q.addr)
	}
	return q.Contains(p.addr)
}

// ContainsPrefix reports whether q is a (non-strict) sub-prefix of p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return p.bits <= q.bits && p.Contains(q.addr)
}

// First returns the lowest address in p (its base address).
func (p Prefix) First() Addr { return p.addr }

// Last returns the highest address in p.
func (p Prefix) Last() Addr { return p.addr | Addr(^MaskOf(int(p.bits))) }

// NumAddrs returns the number of addresses covered by p.
func (p Prefix) NumAddrs() uint64 { return 1 << (32 - uint(p.bits)) }

// String renders p in CIDR "a.b.c.d/len" notation, the library's canonical
// textual prefix format.
func (p Prefix) String() string {
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}

// Append appends the CIDR form of p to b and returns the extended slice,
// for zero-allocation serialization on hot paths (batch responses).
func (p Prefix) Append(b []byte) []byte {
	return appendOctet(append(p.addr.Append(b), '/'), byte(p.bits))
}

// MarshalText renders p in CIDR notation, so Prefix values survive JSON
// (both as struct fields and as map keys) and other text codecs. Without
// it the unexported fields would marshal as an empty object.
func (p Prefix) MarshalText() ([]byte, error) {
	return []byte(p.String()), nil
}

// UnmarshalText parses CIDR notation, the inverse of MarshalText.
func (p *Prefix) UnmarshalText(text []byte) error {
	q, err := ParsePrefix(string(text))
	if err != nil {
		return err
	}
	*p = q
	return nil
}

// StringNetmask renders p in the dotted prefix/netmask notation that several
// 1999-era routing-table dumps use ("12.65.128.0/255.255.224.0").
func (p Prefix) StringNetmask() string {
	return p.addr.String() + "/" + Addr(MaskOf(int(p.bits))).String()
}

// IsZero reports whether p is the zero Prefix (0.0.0.0/0). The default route
// does appear in real BGP tables; the clustering pipeline treats a match
// against it as "not clusterable" because a cluster spanning the whole
// Internet carries no topological information.
func (p Prefix) IsZero() bool { return p == Prefix{} }

// MaskOf returns the 32-bit netmask with the top bits leading ones,
// e.g. MaskOf(19) == 0xFFFFE000. MaskOf(0) is 0.
func MaskOf(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - uint(bits))
}

// MaskLen converts a contiguous netmask (dotted form already parsed into an
// Addr) to its prefix length. It returns an error for non-contiguous masks
// such as 255.0.255.0, which occasionally appear as typos in hand-maintained
// network dumps and must not be silently accepted.
func MaskLen(mask Addr) (int, error) {
	m := uint32(mask)
	ones := 0
	for m&0x8000_0000 != 0 {
		ones++
		m <<= 1
	}
	if m != 0 {
		return 0, fmt.Errorf("netutil: non-contiguous netmask %s", mask)
	}
	return ones, nil
}

// ParsePrefix parses CIDR "a.b.c.d/len" notation. The base address is
// canonicalized (host bits cleared) rather than rejected, matching router
// behaviour when ingesting routing-table dumps.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netutil: invalid prefix %q: missing /len", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netutil: invalid prefix %q: bad length", s)
	}
	return PrefixFrom(addr, bits), nil
}

// MustParsePrefix is ParsePrefix for trusted constants; it panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ComparePrefix orders prefixes by base address, then by length (shorter
// first). This is the canonical ordering for routing-table dumps and makes
// aggregation scans (adjacent-block merging) a single linear pass.
func ComparePrefix(a, b Prefix) int {
	switch {
	case a.addr < b.addr:
		return -1
	case a.addr > b.addr:
		return 1
	case a.bits < b.bits:
		return -1
	case a.bits > b.bits:
		return 1
	default:
		return 0
	}
}

// Sibling returns the prefix that differs from p only in its lowest network
// bit — the other half of p's parent. Aggregation (CIDR route summarization)
// merges a prefix with its sibling into the parent. Sibling panics on /0,
// which has no parent.
func (p Prefix) Sibling() Prefix {
	if p.bits == 0 {
		panic("netutil: /0 has no sibling")
	}
	bit := Addr(1) << (32 - uint(p.bits))
	return Prefix{addr: p.addr ^ bit, bits: p.bits}
}

// Parent returns the prefix one bit shorter that contains p. It panics on /0.
func (p Prefix) Parent() Prefix {
	if p.bits == 0 {
		panic("netutil: /0 has no parent")
	}
	return PrefixFrom(p.addr, int(p.bits)-1)
}

// CommonPrefix returns the longest prefix containing every address in
// addrs. The self-correction stage uses it to recompute a cluster's
// identifying prefix after merging or splitting ("the network prefix and
// netmask will be recomputed accordingly", Section 3.5). It panics on an
// empty slice — a cluster always has members.
func CommonPrefix(addrs []Addr) Prefix {
	if len(addrs) == 0 {
		panic("netutil: CommonPrefix of no addresses")
	}
	first, bits := addrs[0], 32
	for _, a := range addrs[1:] {
		x := uint32(first ^ a)
		n := 0
		for n < bits && x&0x8000_0000 == 0 {
			n++
			x <<= 1
		}
		if n < bits {
			bits = n
		}
	}
	return PrefixFrom(first, bits)
}

// Halves splits p into its two child prefixes of length p.Bits()+1.
// It panics on /32, which cannot be split.
func (p Prefix) Halves() (lo, hi Prefix) {
	if p.bits == 32 {
		panic("netutil: /32 cannot be split")
	}
	lo = Prefix{addr: p.addr, bits: p.bits + 1}
	hi = Prefix{addr: p.addr | Addr(1)<<(31-uint(p.bits)), bits: p.bits + 1}
	return lo, hi
}
