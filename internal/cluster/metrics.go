package cluster

import (
	"github.com/netaware/netcluster/internal/obsv"
)

// Observability handles, resolved once so the engines never touch the
// registry lock. Instrumentation here follows the obsv budget: per-run
// spans and batched counter flushes only; the single per-call cost is
// one atomic add in NetworkAware.Cluster, which amortizes per *distinct
// client* (both engines memoize cluster membership per client), not per
// request. Lookup depth is sampled every depthSampleMask+1 lookups via
// the depth-reporting walk, so the plain compiled lookup stays
// instrumentation-free.
var (
	lookupCount = obsv.C("bgp.lookup.count")
	lookupMiss  = obsv.C("bgp.lookup.nomatch")
	lookupDepth = obsv.H("bgp.lookup.depth")

	logRecords     = obsv.C("cluster.log.records")
	logClustered   = obsv.C("cluster.log.clients.clustered")
	logUnclustered = obsv.C("cluster.log.clients.unclustered")
	streamRecords  = obsv.C("cluster.stream.records")

	// Bounded (summary-backed) accounting: occupancy and footprint are
	// point-in-time gauges, eviction churn a monotone counter,
	// flushed by BoundedAccumulator.PublishMetrics once per batch or
	// stream.
	boundedRecords   = obsv.C("cluster.bounded.records")
	boundedOccupancy = obsv.G("cluster.bounded.occupancy")
	boundedEvictions = obsv.C("cluster.bounded.evictions")
	boundedFootprint = obsv.G("cluster.bounded.footprint_bytes")
)

// depthSampleMask samples every 64th lookup into the depth histogram: a
// ~1.6% sampling rate keeps the histogram statistically useful while the
// sampled walk (identical cost plus a depth increment) stays invisible
// in the lookup budget.
const depthSampleMask = 63
