package weblog

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/netaware/netcluster/internal/netutil"
)

// Common Log Format support. Lines follow the NCSA combined-ish layout the
// paper's traces use:
//
//	12.65.147.94 - - [13/Feb/1998:06:15:04 +0000] "GET /index.html HTTP/1.0" 200 4521 "-" "Mozilla/4.0"
//
// The trailing referer/user-agent pair is optional on read (plain common
// format) and always written. Only GET requests with numeric sizes matter
// to the clustering and caching pipelines, which is all the generator
// produces; the parser is stricter than real-world Apache but explicit
// about what it rejects.

const clfTimeLayout = "02/Jan/2006:15:04:05 -0700"

// WriteCLF serializes the log in combined log format. Lines are assembled
// into a reused byte buffer with append-style formatting, and the
// timestamp — the one expensive field — is re-rendered only when the
// request's second offset changes, which in a time-sorted log means one
// time.AppendFormat per distinct second rather than per line.
func WriteCLF(w io.Writer, l *Log) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var (
		buf    []byte
		tsBuf  []byte
		lastT  uint32
		haveTS bool
	)
	for i := range l.Requests {
		r := &l.Requests[i]
		res := l.Resources[r.URL]
		agent := "-"
		if int(r.Agent) < len(l.Agents) {
			agent = l.Agents[r.Agent]
		}
		if !haveTS || r.Time != lastT {
			ts := l.Start.Add(time.Duration(r.Time) * time.Second)
			tsBuf = ts.AppendFormat(tsBuf[:0], clfTimeLayout)
			lastT, haveTS = r.Time, true
		}
		buf = r.Client.Append(buf[:0])
		buf = append(buf, " - - ["...)
		buf = append(buf, tsBuf...)
		buf = append(buf, `] "GET `...)
		buf = append(buf, res.Path...)
		buf = append(buf, ` HTTP/1.0" 200 `...)
		buf = strconv.AppendInt(buf, int64(res.Size), 10)
		buf = append(buf, ` "-" "`...)
		buf = append(buf, agent...)
		buf = append(buf, '"', '\n')
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("weblog: writing CLF: %w", err)
		}
	}
	writeLines.Add(uint64(len(l.Requests)))
	return bw.Flush()
}

// maybeGzip wraps r with a gzip reader when the stream starts with the
// gzip magic bytes — server logs are customarily stored compressed, and
// forcing callers to decompress first is a paper cut. The peek goes through
// the smallest bufio.Reader there is: a read larger than its buffer — every
// read the line scanner makes — bypasses it, so plain text is copied once,
// into the scanner's buffer.
func maybeGzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReaderSize(r, 16)
	magic, err := br.Peek(2)
	if err != nil || len(magic) < 2 || magic[0] != 0x1F || magic[1] != 0x8B {
		return br, nil // not gzip (or too short to be): parse as-is
	}
	zr, err := gzip.NewReader(bufio.NewReaderSize(br, 1<<16))
	if err != nil {
		return nil, fmt.Errorf("weblog: gzip header detected but unreadable: %w", err)
	}
	return zr, nil
}

// ReadCLF parses a combined/common log format stream into a Log. It sits
// on the same scanning core as StreamCLF (see stream.go) — gzip detection,
// the fast/strict parse, interning and the 0.0.0.0 drop (the BOOTP
// placeholder the paper excludes, footnote 6) happen there — and adds what
// only a loaded log can have: request times relative to the earliest
// timestamp rather than the first, in sorted order, and the largest size
// seen per resource. Malformed lines produce an error with the physical
// line number.
func ReadCLF(r io.Reader, name string) (*Log, error) {
	s, err := newCLFScanner(r)
	if err != nil {
		return nil, err
	}
	defer s.tally.flush()
	l := &Log{Name: name}
	var (
		secs     []int64 // absolute Unix seconds, parallel to l.Requests
		start    int64   // the earliest of them, and its zone offset
		startOff int
	)
	for s.next() {
		if id := int(s.rec.Request.URL); id == len(l.Resources) {
			l.Resources = append(l.Resources, Resource{Path: s.rec.Path, Size: s.rec.Size})
		} else if l.Resources[id].Size < s.rec.Size {
			// Sizes can vary across responses (updates); keep the largest
			// so byte-hit accounting is stable.
			l.Resources[id].Size = s.rec.Size
		}
		if len(secs) == 0 || s.sec < start {
			start, startOff = s.sec, s.off
		}
		l.Requests = append(l.Requests, s.rec.Request)
		secs = append(secs, s.sec)
	}
	if s.err != nil {
		return nil, s.err
	}
	l.Agents = s.agents
	if len(l.Requests) == 0 {
		return l, nil
	}
	l.Start = clfTime(start, startOff)
	l.Duration = time.Duration(s.end-start) * time.Second
	for i := range l.Requests {
		l.Requests[i].Time = uint32(secs[i] - start)
	}
	l.SortByTime()
	return l, nil
}

// parseCLFLine dissects one line. It returns the partially-filled request
// (client only), the absolute timestamp, path, size and agent.
func parseCLFLine(line string) (Request, time.Time, string, int32, string, error) {
	var req Request
	// host
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return req, time.Time{}, "", 0, "", fmt.Errorf("no fields")
	}
	client, err := parseClient(line[:sp])
	if err != nil {
		return req, time.Time{}, "", 0, "", err
	}
	req.Client = client
	// [timestamp]
	lb := strings.IndexByte(line, '[')
	rb := strings.IndexByte(line, ']')
	if lb < 0 || rb < lb {
		return req, time.Time{}, "", 0, "", fmt.Errorf("missing timestamp brackets")
	}
	ts, err := time.Parse(clfTimeLayout, line[lb+1:rb])
	if err != nil {
		return req, time.Time{}, "", 0, "", fmt.Errorf("bad timestamp: %w", err)
	}
	// "METHOD path proto"
	q1 := strings.IndexByte(line[rb:], '"')
	if q1 < 0 {
		return req, time.Time{}, "", 0, "", fmt.Errorf("missing request quote")
	}
	q1 += rb
	q2 := strings.IndexByte(line[q1+1:], '"')
	if q2 < 0 {
		return req, time.Time{}, "", 0, "", fmt.Errorf("unterminated request")
	}
	q2 += q1 + 1
	reqFields := strings.Fields(line[q1+1 : q2])
	if len(reqFields) < 2 {
		return req, time.Time{}, "", 0, "", fmt.Errorf("malformed request %q", line[q1+1:q2])
	}
	path := reqFields[1]
	// status and size
	rest := strings.Fields(line[q2+1:])
	if len(rest) < 2 {
		return req, time.Time{}, "", 0, "", fmt.Errorf("missing status/size")
	}
	size := int64(0)
	if rest[1] != "-" {
		size, err = strconv.ParseInt(rest[1], 10, 32)
		if err != nil || size < 0 {
			return req, time.Time{}, "", 0, "", fmt.Errorf("bad size %q", rest[1])
		}
	}
	// optional trailing "referer" "agent"
	agent := "-"
	if i := strings.LastIndexByte(line, '"'); i > q2 {
		j := strings.LastIndexByte(line[:i], '"')
		if j > q2 {
			agent = line[j+1 : i]
		}
	}
	return req, ts, path, int32(size), agent, nil
}

// parseClient accepts a dotted-quad address. Hostnames (from logs with
// resolution enabled) are rejected: clustering is defined on IP addresses,
// and silently hashing names to fake addresses would corrupt every result
// downstream.
func parseClient(field string) (netutil.Addr, error) {
	addr, err := netutil.ParseAddr(field)
	if err != nil {
		return 0, fmt.Errorf("bad client %q (hostname-resolved logs are unsupported): %w", field, err)
	}
	return addr, nil
}
