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
}

func newBusyTracker(cfg cluster.BoundedConfig) (*busyTracker, error) {
	acc, err := cluster.NewBoundedAccumulator(cfg)
	if err != nil {
		return nil, err
	}
	return &busyTracker{acc: acc}, nil
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
		k = b.acc.Config().K
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
