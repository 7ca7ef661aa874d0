package weblog

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// corpus of valid CLF lines: canonical layouts the fast path must accept
// plus exotic-but-valid layouts it must hand to the strict parser.
var clfCorpus = []string{
	`12.65.147.94 - - [13/Feb/1998:06:15:04 +0000] "GET /index.html HTTP/1.0" 200 4521 "-" "Mozilla/4.0"`,
	`24.48.3.87 - - [13/Feb/1998:06:15:05 +0000] "GET /x.gif HTTP/1.0" 304 -`,
	`1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] "GET /a HTTP/1.0" 200 0 "-" "-"`,
	`1.2.3.4 frank frank [13/Feb/1998:23:59:59 -0500] "GET /cgi?q=1&r=2 HTTP/1.1" 200 2147483647 "http://ref/" "Agent with spaces/1.0"`,
	`255.255.255.254 - - [01/Jan/1999:00:00:00 +0900] "GET / HTTP/1.0" 200 1`,
	`1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] "GET /a" 200 10`,
	// Fallback layouts: double space in request, tab separators, plus sign.
	`1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] "GET  /double  HTTP/1.0" 200 10`,
	"1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] \"GET /a HTTP/1.0\" 200\t10",
	`1.2.3.4 - - [13/Feb/1998:06:15:05 +0000] "GET /a HTTP/1.0" 200 +10`,
}

// the corpus split: the first fastPathLines are canonical fast-path
// layouts, the rest must defer to the strict parser.
const fastPathLines = 6

// TestFastParseAgreesWithStrict is the contract of the fast path: on every
// line it accepts, its result is byte-identical to the strict parser's.
func TestFastParseAgreesWithStrict(t *testing.T) {
	var tally parseTally
	for _, line := range clfCorpus {
		client, sec, off, path, agent, size, ok := parseCLFLineFast([]byte(line), &tally)
		req, wantTS, wantPath, wantSize, wantAgent, err := parseCLFLine(line)
		if !ok {
			if err != nil {
				t.Errorf("%q: fast path deferred a line the strict parser rejects: %v", line, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: fast path accepted a line the strict parser rejects: %v", line, err)
			continue
		}
		_, wantOff := wantTS.Zone()
		if client != req.Client || sec != wantTS.Unix() || off != wantOff || string(path) != wantPath ||
			string(agent) != wantAgent || size != wantSize {
			t.Errorf("%q:\nfast   (%v, %d%+d, %q, %q, %d)\nstrict (%v, %v, %q, %q, %d)",
				line, client, sec, off, path, agent, size,
				req.Client, wantTS, wantPath, wantAgent, wantSize)
		}
	}
}

func TestFastParseAcceptsCanonicalLayouts(t *testing.T) {
	// The generator's own output must stay on the fast path — line and
	// timestamp both — otherwise the zero-allocation claim silently
	// degrades to the strict parser or to time.Parse.
	l, err := Generate(testWorld(t), Nagano(0.002))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCLF(&buf, l); err != nil {
		t.Fatal(err)
	}
	lines := append([]string(nil), clfCorpus[:fastPathLines]...)
	lines = append(lines, strings.Split(strings.TrimSpace(buf.String()), "\n")...)
	var tally parseTally
	for _, line := range lines {
		if _, _, _, _, _, _, ok := parseCLFLineFast([]byte(line), &tally); !ok {
			t.Errorf("canonical line fell off the fast path: %q", line)
		}
	}
	if tally.timeSlow != 0 {
		t.Errorf("%d of %d canonical timestamps fell back to time.Parse", tally.timeSlow, len(lines))
	}
}

// TestParseCLFTimeRoundTrip formats random instants in every zone from
// −12:00 to +14:00 with the CLF layout and decodes them by hand: the
// answer must be the instant and the offset, and none may defer.
func TestParseCLFTimeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	first := time.Date(1, 1, 2, 0, 0, 0, 0, time.UTC).Unix()
	span := time.Date(9999, 12, 30, 0, 0, 0, 0, time.UTC).Unix() - first
	for i := 0; i < 20000; i++ {
		off := (rng.Intn(26*4+1) - 12*4) * 15 * 60 // quarter hours, −12:00…+14:00
		want := first + rng.Int63n(span)
		text := time.Unix(want, 0).In(time.FixedZone("", off)).Format(clfTimeLayout)
		sec, gotOff, ok := parseCLFTime([]byte(text))
		if !ok {
			t.Fatalf("%q deferred to time.Parse", text)
		}
		if sec != want || gotOff != off {
			t.Fatalf("%q: got %d%+d, want %d%+d", text, sec, gotOff, want, off)
		}
	}
}

// TestParseCLFTimeDefers pins the conservative edges: inputs time.Parse
// rejects, and valid ones outside the hand decoder's subset, all defer.
func TestParseCLFTimeDefers(t *testing.T) {
	for _, text := range []string{
		"29/Feb/1900:00:00:00 +0000", "31/Apr/1998:06:15:04 +0000", "00/Jan/1998:06:15:04 +0000",
		"13/Feb/1998:24:00:00 +0000", "13/Feb/1998:06:60:04 +0000", "13/Feb/1998:06:15:60 +0000",
		"13/Feb/1998:06:15:04 +1500", "13/Feb/1998:06:15:04 +0060", "13/Feb/1998:06:15:04 00000",
		"13/feb/1998:06:15:04 +0000", "13/Foo/1998:06:15:04 +0000", "3/Feb/1998:06:15:04 +0000",
		"13/Feb/0000:06:15:04 +0000", "13/Feb/19980:06:15:04 +0000", "13-Feb-1998:06:15:04 +0000",
		"1x/Feb/1998:06:15:04 +0000", "",
	} {
		if sec, off, ok := parseCLFTime([]byte(text)); ok {
			t.Errorf("parseCLFTime(%q) = %d%+d, want it deferred", text, sec, off)
		}
	}
	for _, text := range []string{"29/Feb/2000:00:00:00 +0000", "13/Feb/1998:06:15:04 -0000", "13/Feb/1998:06:15:04 +1400"} {
		if _, _, ok := parseCLFTime([]byte(text)); !ok {
			t.Errorf("parseCLFTime(%q) deferred", text)
		}
	}
}

// TestSlowTimestampStillParses: a timestamp the hand decoder defers but
// time.Parse accepts stays on the fast line path, is counted, and yields
// the same record.
func TestSlowTimestampStillParses(t *testing.T) {
	var tally parseTally
	line := `1.2.3.4 - - [13/feb/1998:06:15:04 +0100] "GET /a HTTP/1.0" 200 10`
	_, sec, off, _, _, _, ok := parseCLFLineFast([]byte(line), &tally)
	want := time.Date(1998, 2, 13, 5, 15, 4, 0, time.UTC).Unix()
	if !ok || sec != want || off != 3600 || tally.timeSlow != 1 {
		t.Fatalf("ok=%v sec=%d off=%d timeSlow=%d, want true %d 3600 1", ok, sec, off, tally.timeSlow, want)
	}
}

func TestFastParseDefersAmbiguity(t *testing.T) {
	var tally parseTally
	for _, line := range clfCorpus[fastPathLines:] {
		if _, _, _, _, _, _, ok := parseCLFLineFast([]byte(line), &tally); ok {
			t.Errorf("ambiguous layout must fall back to the strict parser: %q", line)
		}
	}
}

func TestFastParseRejectsWhatStrictRejects(t *testing.T) {
	// Malformed lines must never be accepted by the fast path (they fall
	// through to the strict parser, which produces the error).
	bad := []string{
		`not-an-ip - - [13/Feb/1998:06:15:04 +0000] "GET /a HTTP/1.0" 200 10`,
		`1.2.3.4 - - 13/Feb/1998 "GET /a HTTP/1.0" 200 10`,
		`1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] "GET /a HTTP/1.0" 200 notasize`,
		`1.2.3.4 - - [garbage] "GET /a HTTP/1.0" 200 10`,
		`1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] "GETNOPATH" 200 10`,
		`1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] "GET /a HTTP/1.0" 200 99999999999`,
		`1.2.3.4`,
	}
	var tally parseTally
	for _, line := range bad {
		if _, _, _, _, _, _, ok := parseCLFLineFast([]byte(line), &tally); ok {
			t.Errorf("fast path accepted a malformed line: %q", line)
		}
		if _, err := ReadCLF(strings.NewReader(line+"\n"), "bad"); err == nil {
			t.Errorf("ReadCLF(%q) should fail", line)
		}
	}
}

func TestStreamCLFZeroAllocSteadyState(t *testing.T) {
	// After the intern tables are warm, streaming canonical lines must not
	// allocate per record: a pass over twice as many lines with the same
	// URL and agent costs exactly the allocations of the shorter one (the
	// fixed per-call setup — reader buffer, interner, trace span).
	line := `12.65.147.94 - - [13/Feb/1998:06:15:04 +0000] "GET /index.html HTTP/1.0" 200 4521 "-" "Mozilla/4.0"` + "\n"
	passAllocs := func(lines int) float64 {
		in := strings.Repeat(line, lines)
		n := 0
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := StreamCLF(strings.NewReader(in), func(StreamRecord) bool {
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
		})
		if n != 11*lines { // AllocsPerRun adds one warm-up run
			t.Fatalf("%d records streamed, want %d", n, 11*lines)
		}
		return allocs
	}
	short, long := passAllocs(200), passAllocs(400)
	if long != short {
		t.Errorf("200 more steady-state lines cost %v allocations, want 0", long-short)
	}
	if short > 40 {
		t.Errorf("StreamCLF allocations per 200-line pass = %v, want fixed setup only", short)
	}
}

// TestLineNumbersArePhysical: ReadCLF and StreamCLF name a malformed line
// by its position in the file, blank lines included, while
// StreamStats.Lines keeps counting only the non-blank lines parsed.
func TestLineNumbersArePhysical(t *testing.T) {
	good := `1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] "GET /a HTTP/1.0" 200 10`
	in := "\n" + good + "\n\n   \n" + good + "\n\nnot a log line\n" + good + "\n"
	const want = "weblog: line 7:"
	_, readErr := ReadCLF(strings.NewReader(in), "bad")
	st, streamErr := StreamCLF(strings.NewReader(in), func(StreamRecord) bool { return true })
	for name, err := range map[string]error{"ReadCLF": readErr, "StreamCLF": streamErr} {
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s error = %v, want prefix %q", name, err, want)
		}
	}
	if fmt.Sprint(readErr) != fmt.Sprint(streamErr) {
		t.Errorf("the two readers disagree:\n ReadCLF   %v\n StreamCLF %v", readErr, streamErr)
	}
	if st.Lines != 3 || st.Records != 2 {
		t.Errorf("stats = %d lines, %d records; want 3 non-blank lines, 2 records", st.Lines, st.Records)
	}
}
