package weblog

import "github.com/netaware/netcluster/internal/obsv"

// Parser observability. Per-line accounting uses the parseTally pattern:
// plain local ints accumulated inside the read loop, flushed to the
// shared atomic counters exactly once per stream (deferred, so error
// returns flush too). The zero-allocation fast path therefore carries no
// per-line atomic traffic; "weblog.parse.strict" climbing relative to
// "weblog.parse.fast" is the operational signal that a log's layout has
// drifted off the canonical CLF shape, and "weblog.parse.time_slow" counts
// the fast-path lines whose timestamp parseCLFTime deferred to time.Parse
// (valid, but ~10× the cost).
var (
	parseFast     = obsv.C("weblog.parse.fast")
	parseStrict   = obsv.C("weblog.parse.strict")
	parseTimeSlow = obsv.C("weblog.parse.time_slow")
	parseBytes    = obsv.C("weblog.parse.bytes")
	writeLines    = obsv.C("weblog.write.lines")
)

// parseTally batches per-line parser counts for one stream.
type parseTally struct {
	fast     int
	strict   int
	timeSlow int
	bytes    int64
}

func (t *parseTally) flush() {
	parseFast.Add(uint64(t.fast))
	parseStrict.Add(uint64(t.strict))
	parseTimeSlow.Add(uint64(t.timeSlow))
	parseBytes.Add(uint64(t.bytes))
}
