package weblog

import (
	"strings"
	"testing"
	"time"
)

// FuzzReadCLF asserts the log parser never panics, and that whatever it
// accepts survives a write/read round trip with identical statistics.
func FuzzReadCLF(f *testing.F) {
	f.Add(`12.65.147.94 - - [13/Feb/1998:06:15:04 +0000] "GET /index.html HTTP/1.0" 200 4521 "-" "Mozilla/4.0"`)
	f.Add(`1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] "GET /a HTTP/1.0" 304 -`)
	f.Add(`0.0.0.0 - - [13/Feb/1998:06:15:04 +0000] "GET /a HTTP/1.0" 200 10`)
	f.Add("garbage line")
	f.Add(`1.2.3.4 - - [not-a-date] "GET /a HTTP/1.0" 200 10`)
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		l, err := ReadCLF(strings.NewReader(line+"\n"), "fuzz")
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := WriteCLF(&buf, l); err != nil {
			t.Fatalf("write-back of accepted input failed: %v", err)
		}
		back, err := ReadCLF(strings.NewReader(buf.String()), "fuzz2")
		if err != nil {
			t.Fatalf("re-read of written log failed: %v", err)
		}
		a, b := l.Stats(), back.Stats()
		if a.Requests != b.Requests || a.UniqueClients != b.UniqueClients || a.UniqueURLs != b.UniqueURLs {
			t.Fatalf("round trip changed stats: %+v vs %+v", a, b)
		}
	})
}

// FuzzStreamCLF asserts streaming parse agrees with batch parse: on record
// counts for every input both accept, and on the error — the physical
// line it names included — for every input both reject.
func FuzzStreamCLF(f *testing.F) {
	f.Add(`1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] "GET /a HTTP/1.0" 200 10`)
	f.Add(`1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] "GET /a HTTP/1.0" 200 10
5.6.7.8 - - [13/Feb/1998:06:15:05 +0000] "GET /b HTTP/1.0" 200 20`)
	f.Add("\n1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] \"GET /a HTTP/1.0\" 200 10\n\n \nbad\n")
	f.Fuzz(func(t *testing.T, text string) {
		batch, batchErr := ReadCLF(strings.NewReader(text), "b")
		records := 0
		_, streamErr := StreamCLF(strings.NewReader(text), func(StreamRecord) bool {
			records++
			return true
		})
		if (batchErr == nil) != (streamErr == nil) {
			t.Fatalf("accept disagreement: batch=%v stream=%v", batchErr, streamErr)
		}
		if batchErr != nil && batchErr.Error() != streamErr.Error() {
			t.Fatalf("the readers reject differently: batch=%v stream=%v", batchErr, streamErr)
		}
		if batchErr == nil && records != len(batch.Requests) {
			t.Fatalf("record counts differ: stream %d vs batch %d", records, len(batch.Requests))
		}
	})
}

// FuzzParseCLFLineFast is the differential target for the zero-alloc
// scanner: whenever the fast path accepts a line, the strict parser must
// accept it too and extract identical client, timestamp, path, size, and
// agent fields. The fast path is always allowed to defer (ok=false);
// what it may never do is answer differently. Historical divergence this
// guards: multi-byte Unicode whitespace (U+00A0, U+0085) splits under
// the strict parser's strings.Fields but is token bytes to a byte-wise
// scan, skewing the path or size field unless the fast path defers on
// all non-ASCII bytes.
func FuzzParseCLFLineFast(f *testing.F) {
	for _, line := range clfCorpus {
		f.Add(line)
	}
	// Ambiguity seeds: Unicode whitespace inside the request and in the
	// status/size region, sign and overflow edges, bracket/quote layouts.
	f.Add("1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] \"GET /a\u00a0HTTP/1.0\" 200 10")
	f.Add("1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] \"GET /a HTTP/1.0\" 5\u00a0200 10")
	f.Add("1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] \"GET /a HTTP/1.0\" 200\u008510")
	f.Add("1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] \"GET /\u2002x HTTP/1.0\" 200 10")
	f.Add(`1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] "GET /a HTTP/1.0" 200 2147483648`)
	f.Add(`1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] "GET /a HTTP/1.0" 200 -10`)
	f.Add(`1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] ] "GET /a HTTP/1.0" 200 10`)
	f.Add(`1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] "" 200 10`)
	f.Add(`1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] "GET /a HTTP/1.0" 200 10 "ref"`)
	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsAny(line, "\n\r") {
			return // the scanners only ever see single lines
		}
		var tally parseTally
		client, sec, off, pathB, agentB, size, ok := parseCLFLineFast([]byte(line), &tally)
		if !ok {
			return // deferring is always allowed
		}
		req, sts, spath, ssize, sagent, err := parseCLFLine(line)
		if err != nil {
			t.Fatalf("fast path accepted a line the strict parser rejects: %q (%v)", line, err)
		}
		if req.Client != client {
			t.Errorf("client: fast %v, strict %v (line %q)", client, req.Client, line)
		}
		if _, soff := sts.Zone(); sec != sts.Unix() || off != soff {
			t.Errorf("timestamp: fast %d%+d, strict %v (line %q)", sec, off, sts, line)
		}
		if string(pathB) != spath {
			t.Errorf("path: fast %q, strict %q (line %q)", pathB, spath, line)
		}
		if size != ssize {
			t.Errorf("size: fast %d, strict %d (line %q)", size, ssize, line)
		}
		if string(agentB) != sagent {
			t.Errorf("agent: fast %q, strict %q (line %q)", agentB, sagent, line)
		}
	})
}

// FuzzParseCLFTime is the differential target for the hand-rolled
// timestamp decoder: whenever parseCLFTime accepts, time.Parse with the
// CLF layout accepts too and yields the same Unix seconds and the same
// zone offset. Deferring (ok=false) is always allowed — the caller then
// asks time.Parse — so the decoder can only ever be too cautious, never
// differently right.
func FuzzParseCLFTime(f *testing.F) {
	for _, s := range []string{
		"13/Feb/1998:06:15:04 +0000",
		"29/Feb/2000:00:00:00 +0000", // leap: divisible by 400
		"29/Feb/1900:00:00:00 +0000", // not leap: divisible by 100 only
		"29/Feb/1996:23:59:59 -0800",
		"31/Apr/1998:06:15:04 +0000",
		"00/Jan/1998:06:15:04 +0000",
		"13/Feb/1998:24:00:00 +0000",
		"13/Feb/1998:06:15:60 +0000",
		"13/Feb/1998:06:15:04 +2400",
		"13/Feb/1998:06:15:04 +2500",
		"13/Feb/1998:06:15:04 +0060",
		"13/Feb/1998:06:15:04 -0000",
		"13/Feb/1998:06:15:04 +1400",
		"13/Feb/1998:06:15:04 -1200",
		"13/feb/1998:06:15:04 +0000",
		"13/FEB/1998:06:15:04 +0000",
		"13/Foo/1998:06:15:04 +0000",
		"3/Feb/1998:06:15:04 +0000",
		"13/Feb/19980:06:15:04 +0000",
		"13/Feb/0000:06:15:04 +0000",
		"01/Jan/0001:00:00:00 +1400",
		"31/Dec/9999:23:59:59 -1200",
		"13/Feb/1998:06:15:04 +000",   // 25 bytes
		"13/Feb/1998:06:15:04 +00000", // 27 bytes
		"13/Feb/1998:06:15:04  0000",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sec, off, ok := parseCLFTime([]byte(s))
		if !ok {
			return
		}
		want, err := time.Parse(clfTimeLayout, s)
		if err != nil {
			t.Fatalf("parseCLFTime accepted %q, time.Parse rejects it: %v", s, err)
		}
		if _, wantOff := want.Zone(); sec != want.Unix() || off != wantOff {
			t.Fatalf("%q: parseCLFTime = %d%+d, time.Parse = %d%+d", s, sec, off, want.Unix(), wantOff)
		}
	})
}
