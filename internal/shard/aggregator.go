package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/netaware/netcluster/internal/obsv"
)

var (
	aggPulls      = obsv.C("shard.aggregator.pulls")
	aggPullErrs   = obsv.C("shard.aggregator.pull_errors")
	aggLiveShards = obsv.G("shard.aggregator.live_shards")
	aggStaleMS    = obsv.G("shard.aggregator.staleness_ms")
)

// DefaultFederateEvery bounds how stale the aggregator's pulled shard
// snapshots may get before a scrape triggers a fresh pull.
const DefaultFederateEvery = 2 * time.Second

// MetricsSnapshotPath is the registry-snapshot endpoint the aggregator
// pulls from every member (obsv.SnapshotHandler's mount point).
const MetricsSnapshotPath = "/metrics.json"

// Member is one federation target: a label for its series and the base
// URL to pull from. The aggregator re-reads the member list on every
// pull, so a map whose shard addresses move (node revival) federates the
// new address on the next scrape.
type Member struct {
	Label string
	Base  string
}

// MemberState is one member's last pull outcome: its snapshot on
// success, the error otherwise.
type MemberState struct {
	Member
	Snap obsv.Snapshot
	Err  error
	At   time.Time
}

// AggregatorConfig configures an Aggregator.
type AggregatorConfig struct {
	// Members yields the current federation targets; called on every
	// pull. Required.
	Members func() []Member
	// Client issues the pulls (nil = http.DefaultClient).
	Client *http.Client
	// Timeout bounds one member's pull; 0 = DefaultRouterTimeout.
	Timeout time.Duration
	// MaxAge is the demand-pull threshold: a scrape older than this
	// triggers a refresh. 0 = DefaultFederateEvery.
	MaxAge time.Duration
	// Now is the scrape clock, overridable in tests.
	Now func() time.Time
}

// maxSnapshotBytes caps a member's /metrics.json answer, hundreds of
// times what a clusterd's registry renders to (a few KiB).
const maxSnapshotBytes = 4 << 20

// loadCounter is the per-shard work counter the imbalance gauges are
// derived from: the addresses a node's batch endpoints answered.
const loadCounter = "clusterd.batch.addrs"

// Aggregator is the router-side metrics federation point: it pulls every
// member's registry snapshot from /metrics.json and serves the merged
// cluster view (per-shard labeled series plus cluster-wide quantiles)
// as one Prometheus page. Pulls happen on demand — a scrape or readiness
// probe older than MaxAge refreshes first — so an idle cluster costs no
// background traffic and a dead shard costs nothing until someone looks.
type Aggregator struct {
	cfg AggregatorConfig

	mu     sync.Mutex
	pullMu sync.Mutex // serializes refresh cycles, excluded from state reads
	state  []MemberState
	at     time.Time // completion time of the last refresh
}

// NewAggregator validates cfg and returns an aggregator.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	if cfg.Members == nil {
		return nil, fmt.Errorf("shard aggregator: nil Members source")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultRouterTimeout
	}
	if cfg.MaxAge <= 0 {
		cfg.MaxAge = DefaultFederateEvery
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Aggregator{cfg: cfg}, nil
}

// Refresh pulls every member's snapshot concurrently and installs the
// new state. Member failures land in their MemberState, never abort the
// cycle.
func (a *Aggregator) Refresh(ctx context.Context) {
	a.pullMu.Lock()
	defer a.pullMu.Unlock()

	members := a.cfg.Members()
	state := make([]MemberState, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			snap, err := a.pull(ctx, m.Base)
			state[i] = MemberState{Member: m, Snap: snap, Err: err, At: a.cfg.Now()}
		}(i, m)
	}
	wg.Wait()

	aggPulls.Inc()
	live := 0
	for _, st := range state {
		if st.Err != nil {
			aggPullErrs.Inc()
		} else {
			live++
		}
	}
	aggLiveShards.Set(int64(live))

	a.mu.Lock()
	a.state = state
	a.at = a.cfg.Now()
	a.mu.Unlock()
}

func (a *Aggregator) pull(ctx context.Context, base string) (obsv.Snapshot, error) {
	ctx, cancel := context.WithTimeout(ctx, a.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+MetricsSnapshotPath, nil)
	if err != nil {
		return obsv.Snapshot{}, err
	}
	resp, err := a.cfg.Client.Do(req)
	if err != nil {
		return obsv.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return obsv.Snapshot{}, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var snap obsv.Snapshot
	body, err := readCapped(nil, resp.Body, resp.ContentLength, maxSnapshotBytes)
	if err == nil {
		err = json.Unmarshal(body, &snap)
	}
	if err != nil {
		return obsv.Snapshot{}, err
	}
	return snap, nil
}

// refreshIfStale refreshes when the last pull is older than MaxAge (or
// never happened).
func (a *Aggregator) refreshIfStale(ctx context.Context) {
	a.mu.Lock()
	fresh := !a.at.IsZero() && a.cfg.Now().Sub(a.at) < a.cfg.MaxAge
	a.mu.Unlock()
	if !fresh {
		a.Refresh(ctx)
	}
}

// LiveShards counts members whose last pull succeeded.
func (a *Aggregator) LiveShards() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	live := 0
	for _, st := range a.state {
		if st.Err == nil {
			live++
		}
	}
	return live
}

// Staleness is the age of the last completed refresh; a very large
// value when none has happened yet.
func (a *Aggregator) Staleness() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.at.IsZero() {
		return time.Duration(1<<62 - 1)
	}
	return a.cfg.Now().Sub(a.at)
}

// memberSnapshots renders the live members' state for the federated
// writer.
func memberSnapshots(state []MemberState) []obsv.MemberSnapshot {
	var members []obsv.MemberSnapshot
	for _, st := range state {
		if st.Err != nil {
			continue
		}
		members = append(members, obsv.MemberSnapshot{Label: st.Label, Snap: st.Snap})
	}
	return members
}

// Handler serves the federated Prometheus page. Every scrape refreshes
// stale state first, then renders the per-shard labeled series and
// cluster quantiles, followed by the aggregator's own cluster gauges:
// shard totals, liveness, scrape age, and one load-share gauge per live
// shard (1000 = exactly its fair share of the cluster's load counter;
// the per-shard imbalance figure at a glance).
func (a *Aggregator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.refreshIfStale(r.Context())
		a.mu.Lock()
		state := append([]MemberState(nil), a.state...)
		age := a.cfg.Now().Sub(a.at)
		a.mu.Unlock()
		aggStaleMS.Set(age.Milliseconds())

		var buf bytes.Buffer
		if err := obsv.WriteFederatedPrometheus(&buf, memberSnapshots(state)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		a.writeClusterGauges(&buf, state, age)
		w.Header().Set("Content-Type", obsv.PrometheusContentType)
		w.Write(buf.Bytes())
	})
}

func (a *Aggregator) writeClusterGauges(w io.Writer, state []MemberState, age time.Duration) {
	live := 0
	type load struct {
		label string
		v     uint64
	}
	var loads []load
	var total uint64
	for _, st := range state {
		if st.Err != nil {
			continue
		}
		live++
		if v, ok := st.Snap.Counters[loadCounter]; ok {
			loads = append(loads, load{st.Label, v})
			total += v
		}
	}
	gauge := func(fam, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", fam, help, fam, fam, v)
	}
	gauge("netcluster_cluster_shards", "federation members", int64(len(state)))
	gauge("netcluster_cluster_live_shards", "members whose last metrics pull succeeded", int64(live))
	gauge("netcluster_cluster_scrape_age_ms", "age of the shard snapshots behind this page", age.Milliseconds())
	if total > 0 && len(loads) > 0 {
		sort.Slice(loads, func(i, j int) bool { return loads[i].label < loads[j].label })
		fam := "netcluster_cluster_load_share"
		fmt.Fprintf(w, "# HELP %s shard's share of the cluster load counter, in thousandths (fair share = %d)\n# TYPE %s gauge\n",
			fam, 1000/len(loads), fam)
		for _, l := range loads {
			fmt.Fprintf(w, "%s{shard=%q} %d\n", fam, l.label, l.v*1000/total)
		}
	}
}
