package weblog

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"github.com/netaware/netcluster/internal/obsv"
)

// Common Log Format ingestion: one scanning core, clfScanner, under every
// entry point. The paper's largest trace has 46 million requests; the raw
// CLF text does not always fit in memory, and clustering — which needs only
// (client, URL id, size) per line — can run in one pass. StreamCLF hands
// each record the core yields to a callback (cluster.ClusterStream and
// ClusterStreamBounded build on it); StreamCLFChunks runs the same core on
// several goroutines over newline-aligned chunks (chunks.go, under
// cluster.ClusterStreamParallel); ReadCLF collects the records into a Log.
// Line reading, the fast/strict parse, the 0.0.0.0 drop, interning, line
// numbering and the parse counters exist once, here.

// StreamRecord is one parsed log line plus the interned metadata a
// consumer needs without retaining the line.
type StreamRecord struct {
	// Request carries the client, the interned URL and agent ids, and
	// Time in seconds since the stream's first record.
	Request Request
	// Path references an interned string valid beyond the callback.
	Path string
	Size int32
}

// StreamStats accumulates what a single pass can know.
type StreamStats struct {
	Lines   int // lines parsed (excluding blanks)
	Records int // records delivered (0.0.0.0 clients are dropped)
	URLs    int // distinct URLs interned
	Agents  int // distinct agents interned
	Start   time.Time
	End     time.Time
}

// clfScanner yields the records of one CLF stream, one per next call.
// Timestamps stay int64 Unix seconds throughout; time.Time values are
// built once per stream, by the entry point that reports them.
type clfScanner struct {
	sc    *bufio.Scanner // the stream; nil in a chunked scan
	chunk []byte         // a chunked scan's lines not yet read
	tally parseTally
	err   error

	// Intern tables: URL and agent bytes to dense ids and stable strings,
	// and the physical line each agent first appeared on.
	urlIndex   map[string]int32
	agentIndex map[string]uint16
	paths      []string
	agents     []string
	agentLines []int

	// The current record: rec as StreamCLF delivers it, plus the absolute
	// (unclamped) timestamp ReadCLF rebases on the log's earliest record.
	rec StreamRecord
	sec int64 // Unix seconds
	off int   // zone offset, seconds east of UTC

	lineno int         // physical line of the current record, blanks included
	st     StreamStats // Lines and Records so far; StreamCLFCtx fills in the rest
	// The stream's origin (its first record) and latest instant.
	start, end       int64
	startOff, endOff int
}

// newCLFScanner starts a scan of r, decompressing gzipped input
// transparently. The caller flushes s.tally once, when the scan is over.
func newCLFScanner(r io.Reader) (clfScanner, error) {
	src, err := maybeGzip(r)
	if err != nil {
		return clfScanner{}, err
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	return clfScanner{sc: sc, urlIndex: make(map[string]int32), agentIndex: make(map[string]uint16)}, nil
}

// maxLine bounds a line: one of maxLine bytes or more ends the stream with
// bufio.ErrTooLong.
const maxLine = 4 * 1024 * 1024

// next advances to the next record, skipping blank lines and the 0.0.0.0
// placeholder clients the paper excludes (footnote 6). It returns false at
// the end of the stream or on the first malformed line, which s.err then
// names by its physical line number.
func (s *clfScanner) next() bool {
	for {
		raw, ok := s.line()
		if !ok {
			return false
		}
		s.lineno++
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		s.st.Lines++
		s.tally.bytes += int64(len(line))
		client, sec, off, pathb, agentb, size, ok := parseCLFLineFast(line, &s.tally)
		if ok {
			s.tally.fast++
		} else {
			s.tally.strict++
			req, ts, path, ssize, agent, err := parseCLFLine(string(line))
			if err != nil {
				s.err = fmt.Errorf("weblog: line %d: %w", s.lineno, err)
				return false
			}
			client, sec, size = req.Client, ts.Unix(), ssize
			_, off = ts.Zone()
			pathb, agentb = []byte(path), []byte(agent)
		}
		if client.IsUnspecified() {
			continue
		}
		if s.st.Records == 0 {
			s.start, s.startOff = sec, off
		}
		if s.st.Records == 0 || sec > s.end {
			s.end, s.endOff = sec, off
		}
		s.sec, s.off = sec, off
		id, path := s.internURL(pathb)
		aid, err := s.internAgent(agentb)
		if err != nil {
			s.err = fmt.Errorf("weblog: line %d: %w", s.lineno, err)
			return false
		}
		s.st.Records++
		s.rec = StreamRecord{
			// An out-of-order record is clamped to the stream origin: a
			// one-pass consumer cannot rebase the records before it.
			Request: Request{Time: uint32(max(sec-s.start, 0)), Client: client, URL: id, Agent: aid},
			Path:    path,
			Size:    size,
		}
		return true
	}
}

// line returns the next raw line. A stream reads it through its
// bufio.Scanner; a chunk, already in memory, is cut in place by the same
// rules: the last line may lack its newline, and a line of maxLine bytes
// or more ends the scan with bufio.ErrTooLong. (The carriage return the
// Scanner drops, the caller's TrimSpace drops too.)
func (s *clfScanner) line() ([]byte, bool) {
	var err error
	if s.sc != nil {
		if s.sc.Scan() {
			return s.sc.Bytes(), true
		}
		err = s.sc.Err()
	} else if len(s.chunk) > 0 {
		line := s.chunk
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, s.chunk = line[:i], line[i+1:]
		} else {
			s.chunk = nil
		}
		if len(line) < maxLine {
			return line, true
		}
		err = bufio.ErrTooLong
	}
	if err != nil {
		s.err = fmt.Errorf("weblog: reading CLF: %w", err)
	}
	return nil, false
}

// StreamCLF parses r line by line, invoking fn for every request record.
// Unlike ReadCLF it retains only interning tables, not the records, so
// arbitrarily large logs stream in constant memory (modulo distinct URL
// and agent counts). Request.Time is seconds since the first record's
// timestamp; CLF files are chronological in practice, and records arriving
// out of order carry a clamped offset rather than an error. fn returning
// false stops the stream early without error; a malformed line ends it
// with an error naming the physical line (blanks count), as in ReadCLF.
//
// Steady-state lines cost no allocations (see fastparse.go): fields are
// scanned in place, the timestamp decoded by hand, URL and agent strings
// interned once. The strict string parser is the fallback for unusual
// layouts and for error reporting.
func StreamCLF(r io.Reader, fn func(StreamRecord) bool) (StreamStats, error) {
	return StreamCLFCtx(context.Background(), r, fn)
}

// StreamCLFCtx is StreamCLF under a trace context: the whole pass
// records one "weblog.stream" span (line/record totals as attributes)
// into the flight recorder. The per-line loop itself stays
// uninstrumented — one span per stream, never per record.
func StreamCLFCtx(ctx context.Context, r io.Reader, fn func(StreamRecord) bool) (stats StreamStats, err error) {
	_, sp := obsv.StartTraceSpan(ctx, "weblog.stream")
	defer func() {
		sp.SetAttrInt("lines", int64(stats.Lines))
		sp.SetAttrInt("records", int64(stats.Records))
		if err != nil {
			sp.Fail(err)
		}
		sp.End()
	}()
	s, err := newCLFScanner(r)
	if err != nil {
		return StreamStats{}, err
	}
	defer s.tally.flush()
	for s.next() {
		if !fn(s.rec) {
			break
		}
	}
	stats = s.st
	stats.URLs, stats.Agents = len(s.paths), len(s.agents)
	if stats.Records > 0 {
		stats.Start, stats.End = clfTime(s.start, s.startOff), clfTime(s.end, s.endOff)
	}
	return stats, s.err
}

// internURL and internAgent map a field's bytes to its dense id. Lookups on
// the hit path do not allocate (the compiler elides the string conversion
// inside a map index); a miss makes the one stable copy.
func (s *clfScanner) internURL(b []byte) (int32, string) {
	if id, ok := s.urlIndex[string(b)]; ok {
		return id, s.paths[id]
	}
	p := string(b) // the one allocation per distinct URL
	id := int32(len(s.paths))
	s.urlIndex[p] = id
	s.paths = append(s.paths, p)
	return id, p
}

// maxAgents is how many distinct user agents a stream may carry: agent
// ids are uint16.
const maxAgents = 1<<16 - 1

var errTooManyAgents = fmt.Errorf("more than %d distinct user agents", maxAgents)

func (s *clfScanner) internAgent(b []byte) (uint16, error) {
	if id, ok := s.agentIndex[string(b)]; ok {
		return id, nil
	}
	if len(s.agents) >= maxAgents {
		return 0, errTooManyAgents
	}
	a := string(b)
	id := uint16(len(s.agents))
	s.agentIndex[a] = id
	s.agents = append(s.agents, a)
	s.agentLines = append(s.agentLines, s.lineno)
	return id, nil
}
