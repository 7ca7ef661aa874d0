// Package netutil provides compact IPv4 address and prefix primitives used
// throughout the clustering library.
//
// The paper's clustering pipeline operates exclusively on IPv4 addresses
// (1999-era web server logs and BGP tables contain no IPv6), so the package
// represents an address as a bare uint32 in host byte order. This keeps
// longest-prefix-match keys, map keys, and sort comparisons allocation-free
// and branch-cheap, which matters when clustering logs with tens of millions
// of requests.
package netutil

import (
	"fmt"
	"strings"
)

// Addr is an IPv4 address stored as a big-endian ("network order read into a
// register") 32-bit integer: 12.34.56.78 becomes 0x0C22384E. The zero value
// is 0.0.0.0, which server logs use as a placeholder source address (BOOTP
// convention) and which the clustering pipeline deliberately skips.
type Addr uint32

// Octets returns the four dotted-quad octets of a, most significant first.
func (a Addr) Octets() [4]byte {
	return [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
}

// String renders a in dotted-quad form.
func (a Addr) String() string {
	var b [15]byte
	return string(a.Append(b[:0]))
}

// Append appends the dotted-quad form of a to b and returns the extended
// slice, for zero-allocation serialization on hot paths (CLF writing).
func (a Addr) Append(b []byte) []byte {
	b = appendOctet(b, byte(a>>24))
	b = appendOctet(append(b, '.'), byte(a>>16))
	b = appendOctet(append(b, '.'), byte(a>>8))
	return appendOctet(append(b, '.'), byte(a))
}

// appendOctet appends the one to three decimal digits of v. An octet is
// rendered per row of every JSON answer, and strconv.AppendUint's
// no-division path stops at 99.
func appendOctet(b []byte, v byte) []byte {
	switch {
	case v >= 100:
		return append(b, '0'+v/100, '0'+v/10%10, '0'+v%10)
	case v >= 10:
		return append(b, '0'+v/10, '0'+v%10)
	}
	return append(b, '0'+v)
}

// IsUnspecified reports whether a is 0.0.0.0.
func (a Addr) IsUnspecified() bool { return a == 0 }

// Class returns the classful-addressing class of a ('A' through 'E'), as
// used by the classful baseline clusterer and by the abbreviated snapshot
// format (x1.x2.x3.0 with an implied classful mask).
func (a Addr) Class() byte {
	switch {
	case a>>31 == 0:
		return 'A'
	case a>>30 == 0b10:
		return 'B'
	case a>>29 == 0b110:
		return 'C'
	case a>>28 == 0b1110:
		return 'D'
	default:
		return 'E'
	}
}

// ClassfulPrefixLen returns the implied prefix length of a's address class:
// 8 for Class A, 16 for B, 24 for C. For Class D/E addresses, which carry no
// classful network length, it returns 32 so that the caller treats the
// address as a host route rather than silently aggregating it.
func (a Addr) ClassfulPrefixLen() int {
	switch a.Class() {
	case 'A':
		return 8
	case 'B':
		return 16
	case 'C':
		return 24
	default:
		return 32
	}
}

// AddrFrom4 assembles an Addr from four octets, most significant first.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 address. It rejects empty components,
// values above 255, leading-plus/minus signs, and anything but exactly four
// dot-separated decimal components. Leading zeros are accepted (server logs
// in the wild contain them) and interpreted as decimal.
func ParseAddr(s string) (Addr, error) {
	var v uint32
	rest := s
	for i := 0; i < 4; i++ {
		var part string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netutil: invalid IPv4 address %q: expected 4 components", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else {
			part = rest
		}
		if part == "" || len(part) > 3 {
			return 0, fmt.Errorf("netutil: invalid IPv4 address %q: bad component", s)
		}
		var oct uint32
		for _, ch := range []byte(part) {
			if ch < '0' || ch > '9' {
				return 0, fmt.Errorf("netutil: invalid IPv4 address %q: non-digit %q", s, ch)
			}
			oct = oct*10 + uint32(ch-'0')
		}
		if oct > 255 {
			return 0, fmt.Errorf("netutil: invalid IPv4 address %q: component %s out of range", s, part)
		}
		v = v<<8 | oct
	}
	return Addr(v), nil
}

// ParseAddrBytes is ParseAddr over a byte slice without allocating,
// reporting ok instead of a descriptive error. It accepts and rejects
// exactly the same inputs as ParseAddr — the CLF fast path depends on the
// two parsers agreeing, so any relaxation here must be mirrored there.
func ParseAddrBytes(s []byte) (Addr, bool) {
	var v uint32
	i := 0
	for c := 0; c < 4; c++ {
		if c > 0 {
			if i >= len(s) || s[i] != '.' {
				return 0, false
			}
			i++
		}
		start := i
		var oct uint32
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			oct = oct*10 + uint32(s[i]-'0')
			i++
		}
		if i == start || i-start > 3 || oct > 255 {
			return 0, false
		}
		v = v<<8 | oct
	}
	if i != len(s) {
		return 0, false
	}
	return Addr(v), true
}

// MustParseAddr is ParseAddr for trusted constants; it panics on error.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}
