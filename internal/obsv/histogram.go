package obsv

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// numBuckets covers the full uint64 range: bucket 0 holds observations
// ≤ 0, bucket i (i ≥ 1) holds values v with bit length i, i.e. the
// half-open range [2^(i-1), 2^i).
const numBuckets = 65

// Histogram is a log2-bucketed distribution of int64 observations —
// latencies in nanoseconds, sizes in bytes, depths in levels. Exponential
// buckets give ~2x relative resolution over the whole range with a fixed
// 65-slot footprint and no configuration, the same trade routers make in
// hardware counters. Observe is two uncontended atomic adds and never
// allocates; the zero value is ready to use.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	sum     atomic.Int64
	count   atomic.Uint64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLow returns the smallest value bucket i holds (0 for bucket 0).
func BucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// BucketHigh returns the largest value bucket i holds.
func BucketHigh(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistogramBucket is one non-empty bucket in a snapshot: Count
// observations fell in [Low, High].
type HistogramBucket struct {
	Low   uint64 `json:"low"`
	High  uint64 `json:"high"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram. Quantiles
// are linear interpolations within the log2 bucket holding the rank
// (see Quantile) — exact for distributions uniform within a bucket and
// never off by more than the bucket width.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     int64             `json:"sum"`
	Mean    float64           `json:"mean"`
	P50     float64           `json:"p50"`
	P95     float64           `json:"p95"`
	P99     float64           `json:"p99"`
	Max     uint64            `json:"max"` // upper bound of the highest non-empty bucket
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram. Buckets are read individually with
// atomic loads; a snapshot racing writers may be off by in-flight
// observations, never torn.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [numBuckets]uint64
	var s HistogramSnapshot
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		s.Count += c
		if c > 0 {
			s.Max = BucketHigh(i)
			s.Buckets = append(s.Buckets, HistogramBucket{Low: BucketLow(i), High: BucketHigh(i), Count: c})
		}
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
		s.P50 = quantile(&counts, s.Count, 0.50)
		s.P95 = quantile(&counts, s.Count, 0.95)
		s.P99 = quantile(&counts, s.Count, 0.99)
	}
	return s
}

// quantile interpolates the q-quantile from bucket counts. The rank is
// the continuous position q·total, clamped into the observed range, so
// q=1 lands at the top of the last occupied bucket.
func quantile(counts *[numBuckets]uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank >= float64(total) {
		rank = float64(total) - 0.5
	}
	var seen float64
	for i := 0; i < numBuckets; i++ {
		c := float64(counts[i])
		if c == 0 {
			continue
		}
		if rank < seen+c {
			if i == 0 {
				return 0
			}
			lo, hi := float64(BucketLow(i)), float64(BucketHigh(i))
			return lo + (rank-seen)/c*(hi-lo)
		}
		seen += c
	}
	return float64(BucketHigh(numBuckets - 1))
}
