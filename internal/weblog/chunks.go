package weblog

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/netaware/netcluster/internal/obsv"
)

// Chunked ingestion: StreamCLF on several goroutines. Parsing is the bulk
// of a clustering pass, so the parse itself is what runs in parallel. One
// goroutine reads (and inflates) the stream and cuts it into chunks of
// whole lines; each worker scans the chunks it takes with its own
// clfScanner, started at the chunk's physical line, and interns into its
// own tables. What a single pass would report — line and record counts,
// the distinct URL and agent totals, the first and latest timestamps and
// the first error in stream order — is put together afterwards, chunk by
// chunk.

// ChunkBytes is the size StreamCLFChunks cuts its input into: large
// enough that handing a chunk over and counting its lines is noise beside
// parsing it, small enough that a few megabytes keep two workers busy.
const ChunkBytes = 1 << 20

// StreamCLFChunks is StreamCLFCtx on up to workers goroutines, over
// chunks of about chunkBytes each. newWorker runs on the caller's
// goroutine once per worker started — input shorter than two chunks
// starts one — and returns the function that worker's records go to. A
// worker takes chunks in stream order and sees each chunk's records in
// order; Request.Time counts from the first record of the record's chunk.
// Every record of the stream is delivered unless it fails.
//
// Each worker numbers URLs on its own: remap[w][id] is worker w's URL id
// in one id space, in which the first worker's ids are its own (remap[0]
// is nil). The stats and the error are StreamCLFCtx's for the same input;
// the stats of a failed stream are zero.
func StreamCLFChunks(ctx context.Context, r io.Reader, workers, chunkBytes int, newWorker func() func(StreamRecord)) (stats StreamStats, remap [][]int32, err error) {
	wctx, sp := obsv.StartTraceSpan(ctx, "weblog.stream")
	var scanners []*clfScanner
	var outs []*chunkOut
	defer func() {
		sp.SetAttrInt("lines", int64(stats.Lines))
		sp.SetAttrInt("records", int64(stats.Records))
		sp.SetAttrInt("workers", int64(len(scanners)))
		sp.SetAttrInt("chunks", int64(len(outs)))
		if err != nil {
			sp.Fail(err)
		}
		sp.End()
	}()
	src, err := maybeGzip(r)
	if err != nil {
		return StreamStats{}, nil, err
	}

	workers = max(workers, 1)
	cut := chunker{src: src, size: max(chunkBytes, 1)}
	jobs := make(chan chunkJob)
	// Chunk buffers circulate: one per worker being scanned and one the
	// reader fills ahead of them.
	free := make(chan []byte, workers+1)
	for i := 0; i < cap(free); i++ {
		free <- nil
	}
	var failed atomic.Int64 // the earliest chunk that failed so far
	failed.Store(math.MaxInt64)
	var wg sync.WaitGroup
	line0 := 0
	for idx := 0; int64(idx) <= failed.Load(); idx++ {
		data, last := cut.next(<-free)
		if len(data) == 0 && idx > 0 {
			break // only the final chunk can be empty
		}
		if len(scanners) < workers {
			s := &clfScanner{urlIndex: make(map[string]int32), agentIndex: make(map[string]uint16)}
			scanners = append(scanners, s)
			wg.Add(1)
			go scanChunks(wctx, s, newWorker(), jobs, free, &failed, &wg)
		}
		out := &chunkOut{}
		outs = append(outs, out)
		jobs <- chunkJob{data: data, line0: line0, idx: idx, out: out}
		line0 += bytes.Count(data, []byte{'\n'})
		if last {
			break
		}
	}
	close(jobs)
	wg.Wait()

	// The first failed chunk ends the stream; what came before it counts.
	var first *chunkOut
	seen := false
	var start, end int64
	var startOff, endOff int
	for _, o := range outs {
		if o.err != nil {
			first = o
			break
		}
		stats.Lines += o.lines
		stats.Records += o.records
		if o.records == 0 {
			continue
		}
		if !seen {
			start, startOff = o.start, o.startOff
		}
		if !seen || o.end > end {
			end, endOff = o.end, o.endOff
		}
		seen = true
	}
	// The agent limit is the stream's: workers that each stayed under it
	// can exceed it together, at the line the first one too many appears.
	if line, over := agentOverflow(scanners); over && (first == nil || line <= first.errLine) {
		return StreamStats{}, nil, fmt.Errorf("weblog: line %d: %w", line, errTooManyAgents)
	}
	if first != nil {
		return StreamStats{}, nil, first.err
	}
	if cut.err != io.EOF && cut.err != nil {
		return StreamStats{}, nil, fmt.Errorf("weblog: reading CLF: %w", cut.err)
	}
	if seen {
		stats.Start, stats.End = clfTime(start, startOff), clfTime(end, endOff)
	}

	// Chunk 0 always starts a worker. Its tables grow into the stream's.
	urls, agents := scanners[0].urlIndex, scanners[0].agentIndex
	remap = make([][]int32, len(scanners))
	for w, s := range scanners[1:] {
		m := make([]int32, len(s.paths))
		for id, p := range s.paths {
			g, ok := urls[p]
			if !ok {
				g = int32(len(urls))
				urls[p] = g
			}
			m[id] = g
		}
		remap[w+1] = m
		for _, a := range s.agents {
			agents[a] = 0
		}
	}
	stats.URLs, stats.Agents = len(urls), len(agents)
	return stats, remap, nil
}

// chunkJob is one chunk handed to a worker: whole lines, the first of
// which is physical line line0+1.
type chunkJob struct {
	data  []byte
	line0 int
	idx   int
	out   *chunkOut
}

// chunkOut is what scanning one chunk leaves for the merge.
type chunkOut struct {
	lines, records   int
	start, end       int64 // the chunk's first record and its latest
	startOff, endOff int
	err              error
	errLine          int // the last line read when err struck
}

// scanChunks is one worker: it scans each chunk it takes with s and hands
// the records to fn, skipping chunks behind one that failed, and returns
// every buffer to free.
func scanChunks(ctx context.Context, s *clfScanner, fn func(StreamRecord), jobs <-chan chunkJob, free chan<- []byte, failed *atomic.Int64, wg *sync.WaitGroup) {
	defer wg.Done()
	_, sp := obsv.StartTraceSpan(ctx, "weblog.stream.worker")
	defer s.tally.flush()
	chunks, records := 0, 0
	for j := range jobs {
		if int64(j.idx) < failed.Load() {
			s.startChunk(j.data, j.line0)
			for s.next() {
				fn(s.rec)
			}
			*j.out = chunkOut{
				lines: s.st.Lines, records: s.st.Records,
				start: s.start, end: s.end, startOff: s.startOff, endOff: s.endOff,
				err: s.err, errLine: s.lineno,
			}
			for s.err != nil {
				f := failed.Load()
				if int64(j.idx) >= f || failed.CompareAndSwap(f, int64(j.idx)) {
					break
				}
			}
			chunks++
			records += s.st.Records
		}
		free <- j.data[:0]
	}
	sp.SetAttrInt("chunks", int64(chunks))
	sp.SetAttrInt("records", int64(records))
	sp.End()
}

// startChunk points s at a chunk of whole lines, the first of which is
// physical line line0+1, with the chunk's counts and times cleared. The
// intern tables carry over.
func (s *clfScanner) startChunk(chunk []byte, line0 int) {
	s.chunk, s.lineno, s.st, s.err = chunk, line0, StreamStats{}, nil
}

// agentOverflow reports whether the workers together interned more than
// maxAgents distinct agents and, if so, the physical line on which the
// first one too many appeared.
func agentOverflow(scanners []*clfScanner) (line int, over bool) {
	n := 0
	for _, s := range scanners {
		n += len(s.agents)
	}
	if n <= maxAgents {
		return 0, false
	}
	firstLine := make(map[string]int)
	for _, s := range scanners {
		for i, a := range s.agents {
			if l, ok := firstLine[a]; !ok || s.agentLines[i] < l {
				firstLine[a] = s.agentLines[i]
			}
		}
	}
	if len(firstLine) <= maxAgents {
		return 0, false
	}
	lines := make([]int, 0, len(firstLine))
	for _, l := range firstLine {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	return lines[maxAgents], true
}

// chunker cuts a byte stream into chunks of whole lines.
type chunker struct {
	src   io.Reader
	size  int
	carry []byte // the partial line after the last cut
	err   error  // what ended the stream: io.EOF, or the read error
}

// next fills buf with the next chunk: the lines that end in the next
// size or so bytes of input. The last chunk holds the rest of the stream —
// a final line without a newline included — or, when no newline comes
// within maxLine bytes, the start of a line too long to scan.
func (c *chunker) next(buf []byte) (chunk []byte, last bool) {
	buf = append(buf[:0], c.carry...)
	want := c.size
	for {
		if cap(buf) < want {
			buf = append(make([]byte, 0, want), buf...)
		}
		for empties := 0; len(buf) < want && c.err == nil; {
			n, err := c.src.Read(buf[len(buf):want])
			buf = buf[:len(buf)+n]
			switch {
			case err != nil:
				c.err = err
			case n > 0:
				empties = 0
			default:
				// As bufio.Scanner: a reader that keeps returning nothing
				// is broken.
				if empties++; empties == 100 {
					c.err = io.ErrNoProgress
				}
			}
		}
		if c.err != nil {
			return buf, true
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			c.carry = append(c.carry[:0], buf[i+1:]...)
			return buf[:i+1], false
		}
		if len(buf) >= maxLine {
			return buf, true
		}
		want = 2 * len(buf)
	}
}
