package obsv

import (
	"context"
	"math/rand"
	"net/http"
	"strings"
	"testing"
)

// TestTraceHeaderRoundTrip is the format→parse property test: any
// valid span context survives the wire byte-exactly.
func TestTraceHeaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		sc := SpanContext{TraceID: rng.Uint64(), SpanID: rng.Uint64()}
		if sc.TraceID == 0 {
			sc.TraceID = 1
		}
		if sc.SpanID == 0 {
			sc.SpanID = 1
		}
		got, ok := ParseTraceHeader(formatTraceHeader(sc))
		if !ok {
			t.Fatalf("round trip %d: header %q did not parse", i, formatTraceHeader(sc))
		}
		if got != sc {
			t.Fatalf("round trip %d: %+v != %+v", i, got, sc)
		}
	}
}

func TestTraceHeaderHTTPRoundTrip(t *testing.T) {
	_, span := StartTraceSpan(context.Background(), "client.op")
	defer span.End()
	h := make(http.Header)
	h.Set(TraceHeader, formatTraceHeader(span.Context()))

	// The extracted context must parent a new span into the same trace.
	serverCtx := HTTPExtract(context.Background(), h)
	sc, ok := SpanContextFrom(serverCtx)
	if !ok {
		t.Fatal("extract produced no span context")
	}
	if sc != span.Context() {
		t.Fatalf("extracted %+v, injected %+v", sc, span.Context())
	}
	_, child := StartTraceSpan(serverCtx, "server.op")
	if child.Context().TraceID != span.Context().TraceID {
		t.Fatalf("server span trace %d, client trace %d",
			child.Context().TraceID, span.Context().TraceID)
	}
	child.End()
}

// TestTraceHeaderMalformed: every broken shape is ignored (ok=false),
// never an error or a partial parse.
func TestTraceHeaderMalformed(t *testing.T) {
	valid := formatTraceHeader(SpanContext{TraceID: 0xabcdef, SpanID: 0x1234})
	cases := map[string]string{
		"empty":            "",
		"garbage":          "not-a-trace-header",
		"truncated":        valid[:len(valid)-1],
		"overlong":         valid + "0",
		"bad version":      "01" + valid[2:],
		"missing dash":     strings.Replace(valid, "-", "_", 1),
		"non-hex trace":    valid[:19] + "zzzzzzzzzzzzzzzz" + valid[35:],
		"non-hex span":     valid[:36] + "ZZZZZZZZZZZZZZZZ" + valid[52:],
		"uppercase hex":    strings.ToUpper(valid),
		"zero trace id":    valid[:3] + strings.Repeat("0", 32) + valid[35:],
		"zero span id":     valid[:36] + strings.Repeat("0", 16) + valid[52:],
		"foreign 128-bit":  valid[:3] + "1" + valid[4:],
		"non-hex flags":    valid[:53] + "xy",
		"whitespace inset": " " + valid[1:],
	}
	for name, v := range cases {
		if sc, ok := ParseTraceHeader(v); ok {
			t.Errorf("%s: header %q parsed as %+v, want rejected", name, v, sc)
		}
	}

	// A malformed header must leave the context untouched.
	h := make(http.Header)
	h.Set(TraceHeader, "00-bogus")
	ctx := HTTPExtract(context.Background(), h)
	if _, ok := SpanContextFrom(ctx); ok {
		t.Fatal("malformed header produced a span context")
	}
	// ...and so must a missing one.
	ctx = HTTPExtract(context.Background(), make(http.Header))
	if _, ok := SpanContextFrom(ctx); ok {
		t.Fatal("absent header produced a span context")
	}
}

// FuzzParseTraceHeader: every router and node parses X-Netcluster-Trace
// from its clients. Whatever the value, the parse does not panic, accepts
// only the 55-byte shape, and what it accepts is a usable span context
// that survives a format/parse round trip.
func FuzzParseTraceHeader(f *testing.F) {
	valid := formatTraceHeader(SpanContext{TraceID: 0xabcdef, SpanID: 0x1234})
	f.Add(valid)
	f.Add("00-0000000000000000000000000000abcd-0000000000000001-01")
	f.Add(valid[:3] + "1" + valid[4:])
	f.Add(valid[:53] + "ff")
	f.Add(valid + "0")
	f.Add("")
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceHeader(v)
		if !ok {
			return
		}
		if len(v) != traceHeaderLen {
			t.Fatalf("accepted %q of length %d", v, len(v))
		}
		if !sc.Valid() || sc.SpanID == 0 {
			t.Fatalf("%q parsed as unusable %+v", v, sc)
		}
		if back, ok := ParseTraceHeader(formatTraceHeader(sc)); !ok || back != sc {
			t.Fatalf("%q: %+v formats and parses back as %+v (ok %v)", v, sc, back, ok)
		}
	})
}

// TestSetTraceIDSalt: salted processes mint IDs in disjoint ranges, and
// the salt survives the wire.
func TestSetTraceIDSalt(t *testing.T) {
	const salt = uint64(7) << 40
	SetTraceIDSalt(salt)
	defer SetTraceIDSalt(0)

	_, span := StartTraceSpan(context.Background(), "salted.op")
	defer span.End()
	sc := span.Context()
	if sc.TraceID&salt != salt || sc.SpanID&salt != salt {
		t.Fatalf("salt not applied: %+v", sc)
	}
	got, ok := ParseTraceHeader(formatTraceHeader(sc))
	if !ok || got != sc {
		t.Fatalf("salted context did not survive the wire: %+v ok=%v", got, ok)
	}
}

const hexDigits = "0123456789abcdef"

// formatTraceHeader renders sc as the header value a tracing client
// sends. An invalid (zero) context renders as "".
func formatTraceHeader(sc SpanContext) string {
	if !sc.Valid() {
		return ""
	}
	var buf [traceHeaderLen]byte
	buf[0], buf[1], buf[2] = '0', '0', '-'
	// 128-bit trace-id field, upper 64 bits zero.
	for i := 0; i < 16; i++ {
		buf[3+i] = '0'
	}
	putHex64(buf[19:35], sc.TraceID)
	buf[35] = '-'
	putHex64(buf[36:52], sc.SpanID)
	buf[52], buf[53], buf[54] = '-', '0', '1'
	return string(buf[:])
}

func putHex64(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}
