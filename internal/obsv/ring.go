package obsv

import (
	"sort"
	"sync/atomic"
)

// Ring is the flight recorder: a fixed-size, lock-free buffer of the most
// recent completed spans. It is always on — recording one span is an
// atomic counter add plus one pointer store — and bounded, so a
// long-running proxy keeps the last ~16k spans without growing. On
// demand (a -trace-out flag, /debug/trace, a failing cluster test) the
// ring is snapshotted and exported.
//
// Concurrency: the write cursor is an atomic counter and each slot is an
// atomic pointer to an immutable SpanRecord, so unlimited writers never
// block and the race detector sees only atomic operations. A snapshot
// racing writers may interleave spans from adjacent generations — each
// record is still internally consistent, which is all a flight recorder
// needs.

// DefaultRingSize bounds the Default flight recorder: 1<<14 spans ≈ a
// few MB at steady state, several minutes of per-request spans at proxy
// rates and every coarse span of a batch run.
const DefaultRingSize = 1 << 14

// DefaultRing is the process-wide flight recorder the Default registry
// records into.
var DefaultRing = NewRing(DefaultRingSize)

func init() {
	Default.SetRing(DefaultRing)
}

// Ring is a lock-free single-writer-per-slot span buffer. Use NewRing.
type Ring struct {
	slots  []atomic.Pointer[SpanRecord]
	mask   uint64
	writes atomic.Uint64
}

// NewRing returns a ring holding size spans, rounded up to a power of
// two (minimum 16).
func NewRing(size int) *Ring {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Ring{slots: make([]atomic.Pointer[SpanRecord], n), mask: uint64(n - 1)}
}

// Record stores one completed span, overwriting the oldest when full.
// rec must not be mutated after the call.
func (r *Ring) Record(rec *SpanRecord) {
	if r == nil || rec == nil {
		return
	}
	i := r.writes.Add(1) - 1
	r.slots[i&r.mask].Store(rec)
}

// Snapshot copies the resident spans, ordered by start time. The copy is
// private to the caller.
func (r *Ring) Snapshot() []SpanRecord {
	if r == nil {
		return nil
	}
	w := r.writes.Load()
	n := w
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	out := make([]SpanRecord, 0, n)
	for i := w - n; i < w; i++ {
		if p := r.slots[i&r.mask].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		// Equal starts: longer span first, so parents precede children.
		return out[i].Duration > out[j].Duration
	})
	return out
}
