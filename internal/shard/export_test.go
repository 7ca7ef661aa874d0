package shard

import "github.com/netaware/netcluster/internal/obsv"

// Test hooks for the cluster tests, which run as package shard_test
// because the nodes they stand up (internal/node) import this package.

// RouterAggregator returns rt's metrics aggregator.
func RouterAggregator(rt *Router) *Aggregator { return rt.agg }

// Members returns the last refresh's per-member state.
func (a *Aggregator) Members() []MemberState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]MemberState(nil), a.state...)
}

// FederatedSnapshot flattens the last refresh into one registry-shaped
// snapshot: every member metric under cluster.s<label>.<name>, merged
// cluster-wide series under cluster.<name> (counters and gauges summed,
// histograms bucket-merged so their quantiles are true cluster
// quantiles), plus cluster.shards / cluster.live_shards gauges: the
// merge /metrics/cluster renders, in registry form for the tests.
func (a *Aggregator) FederatedSnapshot() obsv.Snapshot {
	state := a.Members()
	out := obsv.Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]obsv.HistogramSnapshot),
	}
	merged := make(map[string][]obsv.HistogramSnapshot)
	live := 0
	for _, st := range state {
		if st.Err != nil {
			continue
		}
		live++
		prefix := "cluster.s" + st.Label + "."
		for name, v := range st.Snap.Counters {
			out.Counters[prefix+name] = v
			out.Counters["cluster."+name] += v
		}
		for name, v := range st.Snap.Gauges {
			out.Gauges[prefix+name] = v
			out.Gauges["cluster."+name] += v
		}
		for name, h := range st.Snap.Histograms {
			out.Histograms[prefix+name] = h
			merged[name] = append(merged[name], h)
		}
	}
	for name, parts := range merged {
		out.Histograms["cluster."+name] = obsv.MergeHistogramSnapshots(parts...)
	}
	out.Gauges["cluster.shards"] = int64(len(state))
	out.Gauges["cluster.live_shards"] = int64(live)
	return out
}
