package obsv

import (
	"context"
	"net/http"
)

// Wire propagation of span contexts. A routed batch crosses process
// boundaries twice (client → router → shard node), and without carrying
// the trace identity across each hop every process starts its own root —
// three disjoint trees for one logical request. The router→node hop
// carries the IDs in the batch stream's header (internal/shard); a
// client's request carries them in a single HTTP header shaped like a
// W3C traceparent:
//
//	X-Netcluster-Trace: 00-<32 hex trace-id>-<16 hex span-id>-01
//
// version "00", a 128-bit trace-id field, a 64-bit parent span-id, and a
// flags byte (always 01, "sampled": the flight recorder records every
// span). Our trace IDs are 64-bit, so the upper half of the trace-id
// field is zero on the wire; an inbound header whose upper half is
// nonzero was minted by some other tracing system and is ignored rather
// than truncated into a colliding local ID. Parsing is strict — any
// malformed header is treated as absent, never as an error: tracing must
// not fail requests.
//
// Span IDs are process-local sequences, so two processes would mint the
// same IDs and a merged trace would alias their spans. SetTraceIDSalt
// moves each process's sequences into a disjoint range; binaries call it
// once at startup with a PID-derived salt, while in-process tests leave
// it zero to keep trace topologies reproducible.

// TraceHeader is the canonical header name carrying the span context.
const TraceHeader = "X-Netcluster-Trace"

// traceHeaderLen is the exact length of a well-formed header value:
// "00-" + 32 hex + "-" + 16 hex + "-" + 2 hex.
const traceHeaderLen = 2 + 1 + 32 + 1 + 16 + 1 + 2

// ParseTraceHeader decodes a traceparent-shaped header value with a
// 64-bit trace ID. It returns ok=false — never an error — for anything
// it cannot use verbatim: empty or truncated values, unknown versions,
// non-hex digits, zero IDs, and foreign 128-bit trace IDs whose upper
// half is nonzero.
func ParseTraceHeader(v string) (SpanContext, bool) {
	if len(v) != traceHeaderLen {
		return SpanContext{}, false
	}
	if v[0] != '0' || v[1] != '0' || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, false
	}
	hi, ok := parseHex64(v[3:19])
	if !ok || hi != 0 {
		return SpanContext{}, false
	}
	traceID, ok := parseHex64(v[19:35])
	if !ok {
		return SpanContext{}, false
	}
	spanID, ok := parseHex64(v[36:52])
	if !ok {
		return SpanContext{}, false
	}
	if !isHex(v[53]) || !isHex(v[54]) {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: traceID, SpanID: spanID}
	if !sc.Valid() || sc.SpanID == 0 {
		return SpanContext{}, false
	}
	return sc, true
}

// HTTPExtract returns ctx carrying the span context found in h, so the
// next StartTraceSpan call parents into the remote trace. When the
// header is absent or malformed, ctx is returned unchanged and the next
// span starts a fresh local trace.
func HTTPExtract(ctx context.Context, h http.Header) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	sc, ok := ParseTraceHeader(h.Get(TraceHeader))
	if !ok {
		return ctx
	}
	return ContextWithSpan(ctx, sc)
}

// SetTraceIDSalt ORs salt into every subsequently minted trace and span
// ID, moving this process's ID sequences into a disjoint range so merged
// multi-process traces never alias. Binaries call it once at startup
// (typically with a PID-derived high-bits salt); tests leave the default
// zero salt so in-process trace topologies stay deterministic.
func SetTraceIDSalt(salt uint64) {
	idSalt.Store(salt)
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
}

func parseHex64(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	var v uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}
