package cluster

import (
	"context"
	"fmt"
	"io"
	"math"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/sketch"
	"github.com/netaware/netcluster/internal/weblog"
)

// Bounded-memory streaming accounting. The exact streaming accumulator
// (ClusterStream) keeps one map entry per distinct cluster and client —
// O(distinct) memory, which a firehose replay of 100M requests turns
// into gigabytes of RSS. The paper's Section 4.1.3 thresholding
// observation justifies a cheaper contract: ~70% of requests come from
// a small busy tail of clusters, so track the top-K busy clusters in
// exact counters (space-saving summary) and approximate the long tail
// in a count-min sketch. Memory becomes O(K + sketch width), fixed at
// construction and independent of stream length or cluster cardinality.

// SpillPolicy selects what happens to traffic from clusters that fall
// out of the monitored set.
type SpillPolicy string

const (
	// SpillSketch (the default) spills an evicted cluster's counters
	// into count-min sketches, so any cluster's request/byte volume
	// stays queryable within ε·N — the evicted tail is approximated,
	// never lost.
	SpillSketch SpillPolicy = "sketch"
	// SpillDrop skips the tail sketch: unmonitored clusters are bounded
	// only by the summary's minimum counter. Halves the footprint when
	// only the heavy hitters matter.
	SpillDrop SpillPolicy = "drop"
)

// BoundedConfig sizes a BoundedAccumulator.
type BoundedConfig struct {
	// K is how many busy clusters the caller wants exact; Busy(K) and
	// the top-K acceptance checks report this many.
	K int
	// Capacity is the monitored-counter budget (default 8×K). The
	// space-saving guarantee is relative to Capacity: any cluster with
	// more than Total/Capacity requests is monitored, and headroom over
	// K is what keeps the top K exact (entered early, never evicted).
	Capacity int
	// Epsilon and Delta size the tail sketch: estimates overshoot by at
	// most ε·N with probability 1-δ. Defaults 1e-4 and 0.01.
	Epsilon float64
	Delta   float64
	// Spill selects the tail policy; default SpillSketch.
	Spill SpillPolicy
}

func (c BoundedConfig) withDefaults() BoundedConfig {
	if c.K <= 0 {
		c.K = 100
	}
	if c.Capacity <= 0 {
		c.Capacity = 8 * c.K
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-4
	}
	if c.Delta == 0 {
		c.Delta = 0.01
	}
	if c.Spill == "" {
		c.Spill = SpillSketch
	}
	return c
}

// Validate rejects configurations the accumulator cannot honor.
func (c BoundedConfig) Validate() error {
	d := c.withDefaults()
	if d.Capacity < d.K {
		return fmt.Errorf("cluster: bounded capacity %d below K %d", d.Capacity, d.K)
	}
	if d.Epsilon < 0 || d.Epsilon >= 1 || d.Delta < 0 || d.Delta >= 1 {
		return fmt.Errorf("cluster: bounded epsilon/delta (%v, %v) out of (0, 1)", d.Epsilon, d.Delta)
	}
	switch d.Spill {
	case SpillSketch, SpillDrop:
	default:
		return fmt.Errorf("cluster: unknown spill policy %q (want %q or %q)", d.Spill, SpillSketch, SpillDrop)
	}
	return nil
}

// prefixKey encodes a prefix injectively into the sketch key space:
// 32 address bits and 6 length bits never collide, so space-saving
// entries identify their cluster exactly.
func prefixKey(p netutil.Prefix) uint64 {
	return uint64(p.Addr())<<6 | uint64(p.Bits())
}

func keyPrefix(k uint64) netutil.Prefix {
	return netutil.PrefixFrom(netutil.Addr(k>>6), int(k&63))
}

// BusyCluster is one reported heavy hitter. Requests and Bytes are
// upper bounds; the matching Err fields are the slack (true value ≥
// bound - err). Exact is true when the counter was never evicted, i.e.
// both values are byte-identical to what the exact accumulator holds.
type BusyCluster struct {
	Prefix      netutil.Prefix `json:"prefix"`
	Requests    uint64         `json:"requests"`
	RequestsErr uint64         `json:"requests_err,omitempty"`
	Bytes       uint64         `json:"bytes"`
	BytesErr    uint64         `json:"bytes_err,omitempty"`
	Exact       bool           `json:"exact"`
}

// BoundedAccumulator tracks per-cluster request and byte volume in
// fixed memory. Not safe for concurrent use; callers serialize (the
// clusterd batch path locks once per batch, not per record).
//
// The tail sketches see only what leaves the summary: every
// observation lands on a monitored entry (space-saving admits each
// newcomer), and an entry that is evicted spills the traffic of its
// own stint, Count-Err requests and Bytes-ByteErr bytes. So a cluster's true volume is always its spills plus, while
// monitored, its current stint.
type BoundedAccumulator struct {
	cfg     BoundedConfig
	summary *sketch.SpaceSaving
	tailReq *sketch.CountMin // spilled requests; nil under SpillDrop
	tailByt *sketch.CountMin // spilled bytes; nil under SpillDrop

	requests    uint64
	unclustered uint64

	pubEvictions uint64 // last eviction total flushed to the obsv counter
	pubRequests  uint64 // last request total flushed to the obsv counter
}

// NewBoundedAccumulator builds an accumulator from cfg (zero fields
// take defaults).
func NewBoundedAccumulator(cfg BoundedConfig) (*BoundedAccumulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	b := &BoundedAccumulator{
		cfg:     cfg,
		summary: sketch.NewSpaceSaving(cfg.Capacity),
	}
	if cfg.Spill == SpillSketch {
		var err error
		if b.tailReq, err = sketch.NewCountMinError(cfg.Epsilon, cfg.Delta); err != nil {
			return nil, err
		}
		if b.tailByt, err = sketch.NewCountMinError(cfg.Epsilon, cfg.Delta); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Config returns the resolved configuration.
func (b *BoundedAccumulator) Config() BoundedConfig { return b.cfg }

// Observe records one request of the given byte size for cluster p.
// The hot path is one summary update; only a takeover touches the tail
// sketches, spilling the displaced cluster's stint — no allocations.
func (b *BoundedAccumulator) Observe(p netutil.Prefix, size int64) {
	b.requests++
	if victim, evicted := b.summary.Add(prefixKey(p), 1, uint64(size)); evicted {
		b.spill(victim)
	}
}

// spill folds an entry leaving the summary into the tail sketches: the
// traffic it gathered while monitored, not the slack it inherited (its
// own victim already spilled that). A zero weight is skipped, since a
// conservative update by zero changes no cell.
func (b *BoundedAccumulator) spill(e sketch.Entry) {
	if b.tailReq == nil {
		return
	}
	if n := e.Count - e.Err; n != 0 {
		b.tailReq.AddConservative(e.Key, n)
	}
	if n := e.Bytes - e.ByteErr; n != 0 {
		b.tailByt.AddConservative(e.Key, n)
	}
}

// ObserveUnclustered counts a request no prefix covered; it
// participates in totals but belongs to no cluster.
func (b *BoundedAccumulator) ObserveUnclustered() {
	b.requests++
	b.unclustered++
}

// Requests returns the total observed request count (clustered +
// unclustered).
func (b *BoundedAccumulator) Requests() uint64 { return b.requests }

// Unclustered returns how many requests no prefix covered.
func (b *BoundedAccumulator) Unclustered() uint64 { return b.unclustered }

// Occupancy returns how many clusters are currently monitored exactly.
func (b *BoundedAccumulator) Occupancy() int { return b.summary.Len() }

// Evictions returns the cumulative heavy-hitter churn: how many times
// a cluster was pushed out of the monitored set.
func (b *BoundedAccumulator) Evictions() uint64 { return b.summary.Evictions() }

// TailBound returns the summary's current eviction threshold: no
// unmonitored cluster can have issued more requests, and no monitored
// counter overstates by more. Zero while the monitored set has room.
func (b *BoundedAccumulator) TailBound() uint64 { return b.summary.MinCount() }

// ErrorBound returns the tail estimates' absolute error ceiling ε·N,
// N the clustered requests observed (0 under SpillDrop, where no tail
// estimate exists). The spill sketch holds less than N, but its cells
// never exceed a plain sketch of the whole stream's, so ε·N is the
// bound that holds with probability 1-δ.
func (b *BoundedAccumulator) ErrorBound() uint64 {
	if b.tailReq == nil {
		return 0
	}
	return uint64(math.Ceil(b.tailReq.Epsilon() * float64(b.summary.Total())))
}

// Busy returns the k busiest clusters by request count, descending,
// ties by prefix-key ascending.
func (b *BoundedAccumulator) Busy(k int) []BusyCluster {
	top := b.summary.Top(k)
	out := make([]BusyCluster, len(top))
	for i, e := range top {
		out[i] = BusyCluster{
			Prefix:      keyPrefix(e.Key),
			Requests:    e.Count,
			RequestsErr: e.Err,
			Bytes:       e.Bytes,
			BytesErr:    e.ByteErr,
			Exact:       e.Err == 0 && e.ByteErr == 0,
		}
	}
	return out
}

// GuaranteedTopK reports whether the current top k is provably the
// true top k with exact counts: every reported entry is eviction-free
// (Err == 0) and its count strictly exceeds the best upper bound any
// other cluster — monitored or not — could hold. When true, the
// reported counts are byte-identical to the exact accumulator's.
func (b *BoundedAccumulator) GuaranteedTopK(k int) bool {
	top := b.summary.Top(k + 1)
	if len(top) < k {
		// Fewer distinct clusters than k: everything monitored, and
		// exactness reduces to eviction-freedom.
		for _, e := range top {
			if e.Err != 0 {
				return false
			}
		}
		return b.summary.Evictions() == 0
	}
	// The strongest competitor for rank k is either the (k+1)-th
	// monitored upper bound or an unmonitored cluster, bounded by the
	// summary's minimum counter.
	rival := b.summary.MinCount()
	if len(top) > k && top[k].Count > rival {
		rival = top[k].Count
	}
	for _, e := range top[:k] {
		if e.Err != 0 || e.Count <= rival {
			return false
		}
	}
	return true
}

// FootprintBytes returns the accumulator's fixed memory budget — the
// quantity the firehose RSS ceiling is asserted against.
func (b *BoundedAccumulator) FootprintBytes() int {
	n := b.summary.FootprintBytes() + 96
	if b.tailReq != nil {
		n += b.tailReq.FootprintBytes() + b.tailByt.FootprintBytes()
	}
	return n
}

// PublishMetrics flushes the accumulator's state to the obsv registry:
// monitored-set occupancy, observed records and eviction churn (as
// counter deltas since the last flush), the ε·N error ceiling and the
// fixed footprint. Call once per batch or stream, never per record.
func (b *BoundedAccumulator) PublishMetrics() {
	boundedOccupancy.Set(int64(b.summary.Len()))
	boundedErrorBound.Set(int64(b.ErrorBound()))
	boundedFootprint.Set(int64(b.FootprintBytes()))
	if ev := b.summary.Evictions(); ev > b.pubEvictions {
		boundedEvictions.Add(ev - b.pubEvictions)
		b.pubEvictions = ev
	}
	if b.requests > b.pubRequests {
		boundedRecords.Add(b.requests - b.pubRequests)
		b.pubRequests = b.requests
	}
}

// BoundedStreamResult is what one bounded pass over a CLF stream
// yields: the busy tail exactly, totals, and the accumulator itself.
type BoundedStreamResult struct {
	Method        string
	Busy          []BusyCluster
	TotalRequests int
	Acc           *BoundedAccumulator
	Stats         weblog.StreamStats
}

// clientCacheBits sizes the direct-mapped client→cluster cache the
// bounded stream pass uses instead of the exact engines' unbounded
// per-client memo maps: 2^16 entries ≈ 1 MiB, fixed.
const clientCacheBits = 16

type clientCacheEntry struct {
	addr  netutil.Addr
	p     netutil.Prefix
	state uint8 // 0 empty, 1 clustered, 2 unclusterable
}

// ClusterStreamBounded clusters a CLF stream in one pass and fixed
// memory — the firehose mode. Unlike ClusterStream it retains no
// per-client or per-URL maps: cluster membership lookups go through a
// fixed direct-mapped cache, per-cluster accounting through the
// sketch-backed accumulator. Semantics match ClusterStream for
// request/byte totals of the busy clusters (byte-identical while the
// top K is guaranteed, see GuaranteedTopK); client sets and URL sets
// are not tracked — that is the memory being saved.
func ClusterStreamBounded(r io.Reader, c Clusterer, cfg BoundedConfig) (*BoundedStreamResult, error) {
	return ClusterStreamBoundedCtx(context.Background(), r, c, cfg)
}

// ClusterStreamBoundedCtx is ClusterStreamBounded under a trace
// context: the pass records a "cluster.stream.bounded" span with the
// parse work nested underneath.
func ClusterStreamBoundedCtx(ctx context.Context, r io.Reader, c Clusterer, cfg BoundedConfig) (*BoundedStreamResult, error) {
	acc, err := NewBoundedAccumulator(cfg)
	if err != nil {
		return nil, err
	}
	sctx, sp := obsv.StartTraceSpan(ctx, "cluster.stream.bounded")
	res := &BoundedStreamResult{Method: c.Name(), Acc: acc}
	cache := make([]clientCacheEntry, 1<<clientCacheBits)
	stats, err := weblog.StreamCLFCtx(sctx, r, func(rec weblog.StreamRecord) bool {
		res.TotalRequests++
		client := rec.Request.Client
		slot := &cache[uint32(client)*2654435761>>(32-clientCacheBits)]
		if slot.state == 0 || slot.addr != client {
			p, ok := c.Cluster(client)
			slot.addr = client
			if ok {
				slot.p, slot.state = p, 1
			} else {
				slot.p, slot.state = netutil.Prefix{}, 2
			}
		}
		if slot.state == 2 {
			acc.ObserveUnclustered()
			return true
		}
		acc.Observe(slot.p, int64(rec.Size))
		return true
	})
	res.Stats = stats
	res.Busy = acc.Busy(acc.cfg.K)
	streamRecords.Add(uint64(res.TotalRequests))
	acc.PublishMetrics()
	sp.SetAttr("method", res.Method)
	sp.SetAttrInt("records", int64(res.TotalRequests))
	sp.SetAttrInt("monitored", int64(acc.Occupancy()))
	sp.SetAttrInt("evictions", int64(acc.Evictions()))
	if err != nil {
		sp.Fail(err)
		sp.End()
		return nil, err
	}
	sp.End()
	return res, nil
}
