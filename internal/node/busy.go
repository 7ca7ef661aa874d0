package node

// Busy-cluster accounting for the serving path. Every address the
// batch endpoint clusters feeds a bounded accumulator (a space-saving
// summary, internal/cluster), so a node absorbing a firehose of lookups
// can always answer "which clusters are busiest right now" in fixed
// memory — the Section 4.1.3 thresholding view, live. An address costs
// one summary update. The accumulator is not thread-safe; the tracker
// locks once per batch, never per address, keeping the hot path's added
// cost to one mutex acquisition amortized over the whole batch.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/cluster"
)

type busyTracker struct {
	mu  sync.Mutex
	acc *cluster.BoundedAccumulator
	cfg cluster.BoundedConfig // resolved config the accumulator was built with
}

func newBusyTracker(cfg cluster.BoundedConfig) (*busyTracker, error) {
	acc, err := cluster.NewBoundedAccumulator(cfg)
	if err != nil {
		return nil, err
	}
	return &busyTracker{acc: acc, cfg: acc.Config()}, nil
}

// boundedConfig assembles the accumulator sizing from one tunables
// generation.
func (t *Tunables) boundedConfig() cluster.BoundedConfig {
	return cluster.BoundedConfig{K: t.BusyK, Capacity: t.BusyCapacity}
}

// observeMatches folds one resolved batch into the accumulator: one
// request per address, no byte weights (the lookup protocol carries
// none). Metrics flush under the same single lock acquisition.
func (b *busyTracker) observeMatches(matches []bgp.Match) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range matches {
		if m.Prefix.IsZero() {
			b.acc.ObserveUnclustered()
			continue
		}
		b.acc.Observe(m.Prefix, 0)
	}
	b.acc.PublishMetrics()
}

// reconfigure swaps in a freshly sized accumulator when a config
// reload changes its dimensions. Accounting restarts from zero
// — resizing a summary in place is not meaningful — so an unchanged
// config is deliberately a no-op.
func (b *busyTracker) reconfigure(cfg cluster.BoundedConfig, logf func(string, ...any)) {
	acc, err := cluster.NewBoundedAccumulator(cfg)
	if err != nil {
		// Validation runs at flag/config-parse time; reaching this means a
		// gap there, and the previous accumulator keeps serving.
		logf("clusterd: busy tracker reconfigure: %v", err)
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if acc.Config() == b.cfg {
		return
	}
	old := b.acc.Requests()
	b.cfg = acc.Config()
	b.acc = acc
	logf("clusterd: busy tracker resized: k=%d capacity=%d (%d observed requests reset)",
		b.cfg.K, b.cfg.Capacity, old)
}

// busyResponse is the GET /busy wire shape.
type busyResponse struct {
	K           int                   `json:"k"`
	Requests    uint64                `json:"requests"`
	Unclustered uint64                `json:"unclustered"`
	Occupancy   int                   `json:"occupancy"`
	Evictions   uint64                `json:"evictions"`
	TailBound   uint64                `json:"tail_bound"`
	Guaranteed  bool                  `json:"guaranteed_top_k"`
	Clusters    []cluster.BusyCluster `json:"clusters"`
}

// handleBusy reports the current top-K busy clusters. ?k= overrides
// the configured K up to the summary capacity.
func (b *busyTracker) handleBusy(w http.ResponseWriter, r *http.Request) {
	k := 0
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			http.Error(w, fmt.Sprintf("bad k %q", q), http.StatusBadRequest)
			return
		}
		k = n
	}
	b.mu.Lock()
	if k == 0 {
		k = b.cfg.K // a reload may be resizing it
	}
	resp := busyResponse{
		K:           k,
		Requests:    b.acc.Requests(),
		Unclustered: b.acc.Unclustered(),
		Occupancy:   b.acc.Occupancy(),
		Evictions:   b.acc.Evictions(),
		TailBound:   b.acc.TailBound(),
		Guaranteed:  b.acc.GuaranteedTopK(k),
		Clusters:    b.acc.Busy(k),
	}
	b.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}
