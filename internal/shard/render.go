package shard

import (
	"net/http"
	"sort"
	"strconv"
	"unicode/utf8"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
)

// Append-style JSON renderers for the client-facing answers. Each emits,
// straight from addresses and matches, byte for byte what
// json.NewEncoder(w).Encode produces for the wire.go struct of the same
// shape (render_test.go holds them to that), so clients keep decoding
// LookupResult, BatchResponse and RouterBatchResponse while the serving
// path builds no per-row struct or string.

// kindNames is indexed by bgp.SourceKind; the names hold nothing JSON
// escapes.
var kindNames = [...]string{
	bgp.SourceBGP:         bgp.SourceBGP.String(),
	bgp.SourceNetworkDump: bgp.SourceNetworkDump.String(),
}

// appendRowFields appends one row's LookupResult fields, leaving the
// object open so the router can add its shard annotation.
func appendRowFields(dst []byte, addr netutil.Addr, m bgp.Match, gen uint64) []byte {
	dst = append(dst, `{"addr":"`...)
	dst = addr.Append(dst)
	if m.Prefix.IsZero() {
		dst = append(dst, `","clustered":false,"generation":`...)
		return strconv.AppendUint(dst, gen, 10)
	}
	dst = append(dst, `","clustered":true,"prefix":"`...)
	dst = m.Prefix.Append(dst)
	dst = append(dst, `","kind":`...)
	if int(m.Kind) < len(kindNames) {
		dst = append(dst, '"')
		dst = append(dst, kindNames[m.Kind]...)
		dst = append(dst, '"')
	} else {
		dst = appendJSONString(dst, m.Kind.String())
	}
	dst = append(dst, `,"generation":`...)
	return strconv.AppendUint(dst, gen, 10)
}

// AppendLookupJSON appends the LookupResult encoding of one answer.
func AppendLookupJSON(dst []byte, addr netutil.Addr, m bgp.Match, gen uint64) []byte {
	return append(appendRowFields(dst, addr, m, gen), '}', '\n')
}

// AppendBatchJSON appends the BatchResponse encoding of one resolved
// batch: matches[i] answers addrs[i], all against generation gen.
func AppendBatchJSON(dst []byte, addrs []netutil.Addr, matches []bgp.Match, gen uint64) []byte {
	dst = append(dst, `{"generation":`...)
	dst = strconv.AppendUint(dst, gen, 10)
	dst = append(dst, `,"results":[`...)
	for i, a := range addrs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(appendRowFields(dst, a, matches[i], gen), '}')
	}
	return append(dst, ']', '}', '\n')
}

// appendRoutedJSON appends the RouterBatchResponse encoding of a routed
// batch: rows[i] answers addrs[i] unless its owning shard's report
// carries an error, in which case the row is the zero answer plus that
// error.
func appendRoutedJSON(dst []byte, m *Map, addrs []netutil.Addr, rows []bgp.Match, reports []ShardReport) []byte {
	dst = append(dst, `{"map_version":`...)
	dst = strconv.AppendUint(dst, m.Version, 10)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, liveGeneration(reports), 10)
	dst = append(dst, `,"results":[`...)
	for i, a := range addrs {
		if i > 0 {
			dst = append(dst, ',')
		}
		sid := m.ShardFor(a)
		rep := &reports[sid]
		if rep.Error == "" {
			dst = appendRowFields(dst, a, rows[i], rep.Generation)
		} else {
			dst = appendRowFields(dst, a, bgp.Match{}, 0)
		}
		dst = append(dst, `,"shard":`...)
		dst = strconv.AppendInt(dst, int64(sid), 10)
		if rep.Error != "" {
			dst = append(dst, `,"error":`...)
			dst = appendJSONString(dst, rep.Error)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `],"shards":[`...)
	for i, rep := range reports {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, int64(rep.ID), 10)
		dst = append(dst, `,"addr":`...)
		dst = appendJSONString(dst, rep.Addr)
		dst = append(dst, `,"generation":`...)
		dst = strconv.AppendUint(dst, rep.Generation, 10)
		dst = append(dst, `,"addrs":`...)
		dst = strconv.AppendInt(dst, int64(rep.Addrs), 10)
		if rep.Error != "" {
			dst = append(dst, `,"error":`...)
			dst = appendJSONString(dst, rep.Error)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	var failed []int
	for _, rep := range reports {
		if rep.Error != "" {
			failed = append(failed, rep.ID)
		}
	}
	if len(failed) > 0 {
		// encoding/json orders map keys as strings: "10" sorts before "2".
		sort.Slice(failed, func(a, b int) bool { return strconv.Itoa(failed[a]) < strconv.Itoa(failed[b]) })
		dst = append(dst, `,"degradation":{`...)
		for i, id := range failed {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '"')
			dst = strconv.AppendInt(dst, int64(id), 10)
			dst = append(dst, '"', ':')
			dst = appendJSONString(dst, reports[id].Error)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}', '\n')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as encoding/json's Encoder writes a string:
// HTML-escaping on, invalid UTF-8 replaced by U+FFFD, U+2028 and U+2029
// escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

var jsonContentType = []string{"application/json"}

// writeBody answers with one header-complete Write. contentType is a
// shared slice such as the one above; net/http only reads header values.
func writeBody(w http.ResponseWriter, contentType []string, body []byte) {
	h := w.Header()
	h["Content-Type"] = contentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	_, _ = w.Write(body) // a client that hung up needs no answer
}

// WriteLookup answers a one-address GET /lookup with the LookupResult
// encoding of (addr, m, gen). A body this small is still in net/http's
// buffer when the handler returns, so the server declares its length
// itself, without the header strings writeBody would allocate.
func WriteLookup(w http.ResponseWriter, addr netutil.Addr, m bgp.Match, gen uint64) {
	sc := getScratch()
	sc.out = AppendLookupJSON(sc.out[:0], addr, m, gen)
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(sc.out) // a client that hung up needs no answer
	putScratch(sc)
}
