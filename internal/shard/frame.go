package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
)

// The columnar batch frame is the payload a Router and its nodes exchange
// on a batch stream (stream.go, which adds a 16-byte header to each
// message and an error frame). All integers are little-endian.
//
//	request   offset 0  magic "NCQ1"
//	                 4  count   uint32
//	                 8  count × uint32 address
//	          exactly 8+4n bytes
//
//	response  offset 0      magic "NCR1"
//	                 4      count      uint32 (= the request's count)
//	                 8      generation uint64 (the one table the batch ran against)
//	                 16     count × uint32 prefix base
//	                 16+4n  count × uint8  prefix bits
//	                 16+5n  count × uint8  source kind
//	          exactly 16+6n bytes
//
// Row i of the response answers address i of the request. The all-zero
// row is a miss, as the zero bgp.Match is. A frame's length follows from
// its count, and the count is checked — against the batch limit on a
// node, against the addresses sent on the router — before anything past
// the header is read. Decoders reject rather than trust: a frame is
// accepted whole or not at all, and every accepted frame re-encodes to
// the same bytes.

const (
	requestMagic      = "NCQ1"
	responseMagic     = "NCR1"
	requestHeaderLen  = 8
	responseHeaderLen = 16
)

// requestFrameLen is the exact size of a request frame of n addresses.
func requestFrameLen(n int) int { return requestHeaderLen + 4*n }

// responseFrameLen is the exact size of a response frame of n rows.
func responseFrameLen(n int) int { return responseHeaderLen + 6*n }

var (
	errRequestMagic  = errors.New("batch frame: not a request frame")
	errResponseMagic = errors.New("batch frame: not a response frame")
)

// AppendRequestFrame appends the request frame for addrs to dst.
func AppendRequestFrame(dst []byte, addrs []netutil.Addr) []byte {
	dst = slices.Grow(dst, requestFrameLen(len(addrs)))
	dst = append(dst, requestMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(addrs)))
	for _, a := range addrs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(a))
	}
	return dst
}

// DecodeRequestFrame decodes a request frame of at most limit addresses
// into dst[:0]. A count above limit is the same too-large error
// ParseAddrList reports.
func DecodeRequestFrame(body []byte, limit int, dst []netutil.Addr) ([]netutil.Addr, error) {
	if len(body) < requestHeaderLen || string(body[:4]) != requestMagic {
		return nil, errRequestMagic
	}
	n := int64(binary.LittleEndian.Uint32(body[4:]))
	if n > int64(limit) {
		return nil, errBatchTooLarge
	}
	if want := requestHeaderLen + 4*n; int64(len(body)) != want {
		return nil, fmt.Errorf("batch frame: %d addresses take %d bytes, body has %d", n, want, len(body))
	}
	dst = resize(dst, int(n))
	col := body[requestHeaderLen:]
	for i := range dst {
		dst[i] = netutil.Addr(binary.LittleEndian.Uint32(col[4*i:]))
	}
	return dst, nil
}

// AppendResponseFrame appends the response frame for one resolved batch
// to dst.
func AppendResponseFrame(dst []byte, gen uint64, matches []bgp.Match) []byte {
	n := len(matches)
	dst = slices.Grow(dst, responseFrameLen(n))
	dst = append(dst, responseMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint64(dst, gen)
	cols := dst[len(dst) : len(dst)+6*n]
	base, bits, kind := cols[:4*n], cols[4*n:5*n], cols[5*n:]
	for i, m := range matches {
		binary.LittleEndian.PutUint32(base[4*i:], uint32(m.Prefix.Addr()))
		bits[i] = uint8(m.Prefix.Bits())
		kind[i] = uint8(m.Kind)
	}
	return dst[:len(dst)+6*n]
}

// DecodeResponseFrame validates a response frame that must answer
// exactly want addresses and decodes its rows into dst[:0]. Rejected:
// wrong magic, a count other than want, a length other than the count
// implies, bits above 32, host bits set below the mask, an unknown source
// kind, and a miss that is not the all-zero row.
func DecodeResponseFrame(body []byte, want int, dst []bgp.Match) (matches []bgp.Match, gen uint64, err error) {
	if len(body) < responseHeaderLen || string(body[:4]) != responseMagic {
		return nil, 0, errResponseMagic
	}
	n := int64(binary.LittleEndian.Uint32(body[4:]))
	if n != int64(want) {
		return nil, 0, fmt.Errorf("batch frame: %d rows for %d addresses", n, want)
	}
	if size := responseHeaderLen + 6*n; int64(len(body)) != size {
		return nil, 0, fmt.Errorf("batch frame: %d rows take %d bytes, body has %d", n, size, len(body))
	}
	gen = binary.LittleEndian.Uint64(body[8:])
	cols := body[responseHeaderLen:]
	base, bits, kind := cols[:4*n], cols[4*n:5*n], cols[5*n:]
	dst = resize(dst, want)
	for i := range dst {
		a, b, k := binary.LittleEndian.Uint32(base[4*i:]), bits[i], kind[i]
		switch {
		case b > 32:
			return nil, 0, fmt.Errorf("batch frame: row %d: prefix length %d", i, b)
		case a&^netutil.MaskOf(int(b)) != 0:
			return nil, 0, fmt.Errorf("batch frame: row %d: host bits set in %s/%d", i, netutil.Addr(a), b)
		case k > uint8(bgp.SourceNetworkDump):
			return nil, 0, fmt.Errorf("batch frame: row %d: unknown source kind %d", i, k)
		case b == 0 && k != 0:
			return nil, 0, fmt.Errorf("batch frame: row %d: miss carries source kind %d", i, k)
		}
		dst[i] = bgp.Match{Prefix: netutil.PrefixFrom(netutil.Addr(a), int(b)), Kind: bgp.SourceKind(k)}
	}
	return dst, gen, nil
}
