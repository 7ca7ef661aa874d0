package weblog

import (
	"bytes"
	"time"

	"github.com/netaware/netcluster/internal/netutil"
)

// Zero-allocation Common Log Format scanning. parseCLFLineFast dissects
// the canonical layout the generator and real Apache produce — single
// spaces, bracketed timestamp, quoted request — directly from the
// scanner's byte buffer: manual IP and size scanning, a hand-rolled
// decoder for the fixed-width timestamp (parseCLFTime, ~15 ns whatever
// the log's density, so nothing is cached between lines), and byte-slice
// results the caller interns. Anything the fast scan is not certain about
// (tabs, collapsed runs of whitespace, malformed fields) returns ok=false
// and the caller re-parses the line with the strict string parser, which
// either handles the exotic-but-valid layout or produces the proper
// positioned error. The two parsers must agree on every line the fast
// path accepts; the equivalence tests in fastparse_test.go and the fuzz
// targets in fuzz_test.go hold them to that.

// The canonical month spellings, three bytes each; cumDays[m] is the number
// of days before month m+1 in a non-leap year.
const monthNames = "JanFebMarAprMayJunJulAugSepOctNovDec"

var cumDays = [13]int{0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365}

// unixEpochDay is 1970-01-01 counted in days from 0001-01-01.
const unixEpochDay = 719162

// num2 decodes two ASCII digits, or returns -1.
func num2(hi, lo byte) int {
	h, l := hi-'0', lo-'0'
	if h > 9 || l > 9 {
		return -1
	}
	return int(h)*10 + int(l)
}

// parseCLFTime decodes the 26-byte "02/Jan/2006:15:04:05 -0700" form into
// Unix seconds and the zone offset in seconds east of UTC. It accepts a
// conservative subset of what time.Parse(clfTimeLayout, …) accepts — exact
// width and punctuation, canonical month spelling, years 0001–9999, days
// that exist in that month and year, hour ≤ 23, minute and second ≤ 59,
// zone hours ≤ 14 and minutes ≤ 59 — and reports ok=false for everything
// else, which the caller hands to time.Parse. What parses therefore never
// depends on this decoder or on the Go release, only how fast; and
// FuzzParseCLFTime holds every accepted input to time.Parse's answer.
func parseCLFTime(b []byte) (sec int64, off int, ok bool) {
	if len(b) != 26 || b[2] != '/' || b[6] != '/' || b[11] != ':' ||
		b[14] != ':' || b[17] != ':' || b[20] != ' ' {
		return 0, 0, false
	}
	mon := 0
	for m := 0; m < len(monthNames); m += 3 {
		if b[3] == monthNames[m] && b[4] == monthNames[m+1] && b[5] == monthNames[m+2] {
			mon = m/3 + 1
			break
		}
	}
	if mon == 0 {
		return 0, 0, false
	}
	day := num2(b[0], b[1])
	cc, yy := num2(b[7], b[8]), num2(b[9], b[10])
	hh, mm, ss := num2(b[12], b[13]), num2(b[15], b[16]), num2(b[18], b[19])
	zh, zm := num2(b[22], b[23]), num2(b[24], b[25])
	year := cc*100 + yy
	if cc < 0 || yy < 0 || year < 1 || uint(hh) > 23 || uint(mm) > 59 || uint(ss) > 59 ||
		uint(zh) > 14 || uint(zm) > 59 {
		return 0, 0, false
	}
	leap := year%4 == 0 && (year%100 != 0 || year%400 == 0)
	dim := cumDays[mon] - cumDays[mon-1]
	if leap && mon == 2 {
		dim = 29
	}
	if day < 1 || day > dim {
		return 0, 0, false
	}
	off = (zh*60 + zm) * 60
	switch b[21] {
	case '+':
	case '-':
		off = -off
	default:
		return 0, 0, false
	}
	y := year - 1
	days := y*365 + y/4 - y/100 + y/400 + cumDays[mon-1] + day - 1 - unixEpochDay
	if leap && mon > 2 {
		days++
	}
	return int64(days)*86400 + int64(hh*3600+mm*60+ss-off), off, true
}

// clfTime rebuilds the time.Time that time.Parse(clfTimeLayout, …) returns
// for an instant and zone offset: in time.Local when the local zone had
// that offset at that instant, in an unnamed fixed zone otherwise.
func clfTime(sec int64, off int) time.Time {
	t := time.Unix(sec, 0)
	if _, local := t.Zone(); local == off {
		return t
	}
	return t.In(time.FixedZone("", off))
}

var dashBytes = []byte("-")

// parseCLFLineFast is the byte-slice fast path of parseCLFLine. The
// timestamp comes back as Unix seconds plus zone offset; a timestamp
// parseCLFTime defers goes through time.Parse and is counted in
// tally.timeSlow. path and agent alias line (or dashBytes) and must be
// interned before the next scanner advance.
func parseCLFLineFast(line []byte, tally *parseTally) (client netutil.Addr, sec int64, off int, path, agent []byte, size int32, ok bool) {
	// Client address up to the first space.
	sp := bytes.IndexByte(line, ' ')
	if sp <= 0 {
		return
	}
	client, addrOK := netutil.ParseAddrBytes(line[:sp])
	if !addrOK {
		return
	}
	// [timestamp] — same first-'['/first-']' selection as the strict
	// parser (the client field cannot contain brackets): a ']' ahead of the
	// first '[' defers. A timestamp parseCLFTime accepts holds no ']', so
	// the bracket that closes it is the line's first.
	lb := sp
	for lb < len(line) && line[lb] != '[' {
		if line[lb] == ']' {
			return
		}
		lb++
	}
	rb := lb + 27
	tsOK := false
	if rb < len(line) && line[rb] == ']' {
		sec, off, tsOK = parseCLFTime(line[lb+1 : rb])
	}
	if !tsOK {
		rb = bytes.IndexByte(line[lb:], ']')
		if rb < 0 {
			return
		}
		rb += lb
		t, err := time.Parse(clfTimeLayout, string(line[lb+1:rb]))
		if err != nil {
			return
		}
		sec = t.Unix()
		_, off = t.Zone()
		tally.timeSlow++
	}
	// "METHOD path proto" between the first quote pair after ']'.
	q1 := bytes.IndexByte(line[rb:], '"')
	if q1 < 0 {
		return
	}
	q1 += rb
	q2 := bytes.IndexByte(line[q1+1:], '"')
	if q2 < 0 {
		return
	}
	q2 += q1 + 1
	reqb := line[q1+1 : q2]
	// The strict parser splits the request on any whitespace run — which,
	// via strings.Fields, includes multi-byte Unicode whitespace (U+00A0,
	// U+0085, the U+2000 block). The fast path handles only single ASCII
	// spaces and defers every other whitespace candidate — any control
	// byte, and any non-ASCII byte: deciding whether it starts a Unicode
	// space would mean decoding UTF-8 here. One scan finds the first two
	// spaces and vets every byte.
	s1, s2 := -1, len(reqb)
	for i, ch := range reqb {
		if ch > ' ' && ch < 0x80 {
			continue
		}
		if ch != ' ' {
			return
		}
		if s1 < 0 {
			s1 = i
		} else if s2 == len(reqb) {
			s2 = i
		}
	}
	// No method, no path, or a collapsed double space (let strings.Fields
	// decide) all defer.
	if s1 <= 0 || s1 == len(reqb)-1 || s2 == s1+1 {
		return
	}
	path = reqb[s1+1 : s2]
	// Status and size: the second whitespace-delimited token after the
	// request quotes (the strict parser ignores the status value).
	i := skipSpaces(line, q2+1)
	statusEnd := tokenEnd(line, i)
	if statusEnd < 0 || statusEnd == i {
		return
	}
	i = skipSpaces(line, statusEnd)
	sizeEnd := tokenEnd(line, i)
	if sizeEnd < 0 || sizeEnd == i {
		return
	}
	sizeTok := line[i:sizeEnd]
	if len(sizeTok) == 1 && sizeTok[0] == '-' {
		size = 0
	} else {
		v := int64(0)
		for _, ch := range sizeTok {
			if ch < '0' || ch > '9' {
				return // signs, stray quotes: strict parser decides
			}
			v = v*10 + int64(ch-'0')
			if v > 1<<31-1 {
				return
			}
		}
		size = int32(v)
	}
	// Optional trailing "referer" "agent": identical last-quote selection
	// to the strict parser.
	agent = dashBytes
	if last := bytes.LastIndexByte(line, '"'); last > q2 {
		if j := bytes.LastIndexByte(line[:last], '"'); j > q2 {
			agent = line[j+1 : last]
		}
	}
	ok = true
	return
}

// skipSpaces advances past ' ' runs; tabs and other whitespace are left in
// place so tokenEnd rejects them into the strict path.
func skipSpaces(b []byte, i int) int {
	for i < len(b) && b[i] == ' ' {
		i++
	}
	return i
}

// tokenEnd returns the index one past a run of plain-ASCII token bytes
// starting at i, or -1 when the token contains ASCII whitespace — or any
// non-ASCII byte, which could be part of a Unicode space — that the
// strict parser's strings.Fields would split differently.
func tokenEnd(b []byte, i int) int {
	j := i
	for j < len(b) && b[j] != ' ' {
		if b[j] == '\t' || b[j] == '\n' || b[j] == '\v' || b[j] == '\f' || b[j] == '\r' || b[j] >= 0x80 {
			return -1
		}
		j++
	}
	return j
}
