// Package node is the clusterd serving node: one prefix table behind
// the HTTP surface clients and clusterrouters talk to. cmd/clusterd
// builds one from its flags and boot choice; the in-process cluster
// harness (harness.go) builds its compiler and every shard node the same
// way, so the cluster tests exercise the node production runs.
//
// Endpoints:
//
//	GET  /lookup?addr=12.65.147.94   one address → cluster prefix JSON
//	POST /cluster                    newline-separated addresses → JSON
//	GET  /cluster/stream             a clusterrouter's upgrade to a batch
//	                                 stream (internal/shard stream.go)
//	GET  /busy?k=20                  current top-K busy clusters
//	GET  /healthz                    liveness + table generation
//	GET  /readyz                     readiness; a follower also reports
//	                                 its feed lag in generations
//	GET  /debug/config               live tunables and config file
//	GET  /metrics, /metrics.json, /debug/...
//	                                 obsv debug surface
//	GET  /feed/deltas, /feed/snapshot, /feed/status
//	                                 delta distribution (compiler node)
//
// The batch endpoints are admission-controlled: at most MaxInflight
// batches run at once; beyond that the node answers 503 with
// Retry-After instead of queueing unboundedly.
package node

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netaware/netcluster/internal/appconf"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/shard"
)

var (
	lookupCount   = obsv.C("clusterd.lookups")
	batchCount    = obsv.C("clusterd.batches")
	batchAddrs    = obsv.C("clusterd.batch.addrs")
	batchRejected = obsv.C("clusterd.batch.rejected")
	inflightGauge = obsv.G("clusterd.batch.inflight")

	lookupSpan      = obsv.RootSpan("clusterd.lookup")
	batchSpan       = obsv.RootSpan("clusterd.batch")
	batchLookupSpan = obsv.ChildSpan("clusterd.batch.lookup")
)

// Tunables is one resolved configuration generation. Request handlers
// read it through one atomic pointer load, so a Reload lands between
// requests, never inside one.
type Tunables struct {
	MaxInflight  int              `json:"max_inflight"`
	MaxBatch     int              `json:"max_batch"`
	MaxBodyBytes int64            `json:"max_body_bytes"`
	ChurnEvery   appconf.Duration `json:"churn_every"`
	DrainTimeout appconf.Duration `json:"drain_timeout"`
	BusyK        int              `json:"busy_k"`
	BusyCapacity int              `json:"busy_capacity"`
}

// DefaultTunables are clusterd's flag defaults.
func DefaultTunables() Tunables {
	return Tunables{
		MaxInflight:  8,
		MaxBatch:     shard.DefaultMaxBatch,
		MaxBodyBytes: shard.DefaultMaxBody,
		ChurnEvery:   appconf.Duration(2 * time.Second),
		DrainTimeout: appconf.Duration(10 * time.Second),
		BusyK:        100,
	}
}

// ConfigFile is the watched config file /readyz and /debug/config
// report; clusterd's *appconf.Watcher is one.
type ConfigFile interface {
	Status() appconf.Status
}

// Config is what a node is built from: the table its boot produced and
// the role that table plays in a cluster.
type Config struct {
	// Table is the table the node serves; on a follower, Follower.Table.
	Table *churn.Table
	// Tunables is the first configuration generation.
	Tunables Tunables

	// Follower, on a shard or replica node, keeps Table in step with a
	// compiler's delta feed; Run follows it.
	Follower *shard.Follower
	// Feed, on a compiler node, sequences every churn delta for
	// followers and is served under /feed/.
	Feed *shard.Feed
	// Churn is the delta source Run applies locally, every ChurnEvery;
	// nil on a follower.
	Churn *bgpsim.ChurnGen

	// Shard is a sharded node's index in the shard map, the "shard"
	// attribute of its request spans; empty on an unsharded node.
	Shard string
	// ConfigFile, when set, is reported by /readyz and /debug/config.
	ConfigFile ConfigFile
	// Logf receives churn swaps and busy-tracker resizes; nil discards.
	Logf func(format string, args ...any)
}

// Node is one serving clusterd node.
type Node struct {
	cfg     Config
	tun     atomic.Pointer[Tunables]
	sem     *dynamicSemaphore
	busy    *busyTracker
	batch   *shard.BatchHandler
	mux     *http.ServeMux
	started time.Time

	draining atomic.Bool
	stop     context.CancelFunc // ends Run; Shutdown calls it
	stopped  context.Context
	running  sync.Mutex // held by Run, so Shutdown can wait it out
}

// New builds a node over cfg.Table. It fails only on a busy-cluster
// sizing the accumulator cannot honor.
func New(cfg Config) (*Node, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	busy, err := newBusyTracker(cfg.Tunables.boundedConfig())
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		sem:     newDynamicSemaphore(cfg.Tunables.MaxInflight),
		busy:    busy,
		started: time.Now(),
	}
	n.stopped, n.stop = context.WithCancel(context.Background())
	tun := cfg.Tunables
	n.tun.Store(&tun)

	// The shared batch-serving core with this node's policy around it:
	// the admission semaphore, the limits of one pinned config generation
	// — a reload cannot change the rules on a request it already admitted
	// — and the busy-cluster accumulator every resolved batch folds into.
	n.batch = &shard.BatchHandler{
		Table:     cfg.Table,
		BatchSpan: batchSpan,
		TableSpan: batchLookupSpan,
		Batches:   batchCount,
		Addrs:     batchAddrs,
		Limits: func() shard.Limits {
			tun := n.tun.Load()
			return shard.Limits{MaxBatch: tun.MaxBatch, MaxBody: tun.MaxBodyBytes}
		},
		Admission: admission{n.sem},
		Observe:   busy.observeMatches,
	}
	if cfg.Shard != "" {
		n.batch.SpanAttrs = []obsv.Attr{{Key: "shard", Value: cfg.Shard}}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", n.handleLookup)
	mux.Handle("/cluster", n.batch)
	mux.HandleFunc(shard.StreamPath, n.batch.ServeStream)
	mux.HandleFunc("/busy", busy.handleBusy)
	mux.HandleFunc("/healthz", n.handleHealthz)
	mux.HandleFunc("/readyz", n.handleReadyz)
	mux.HandleFunc("/debug/config", n.handleDebugConfig)
	if cfg.Feed != nil {
		fh := cfg.Feed.Handler()
		mux.Handle(shard.DeltasPath, fh)
		mux.Handle(shard.SnapshotPath, fh)
		mux.Handle(shard.StatusPath, fh)
	}
	debug := obsv.DebugHandler()
	mux.Handle("/metrics", debug)
	mux.Handle(shard.MetricsSnapshotPath, debug)
	mux.Handle("/debug/", debug)
	n.mux = mux
	return n, nil
}

// Handler returns the node's mux.
func (n *Node) Handler() http.Handler { return n.mux }

// Tunables returns the live configuration generation.
func (n *Node) Tunables() Tunables { return *n.tun.Load() }

// Reload swaps in a new configuration generation: the limits, the
// admission cap, the churn cadence and the busy-cluster sizing all
// retarget on the live node.
func (n *Node) Reload(t Tunables) {
	n.tun.Store(&t)
	n.sem.SetCap(t.MaxInflight)
	n.busy.reconfigure(t.boundedConfig(), n.cfg.Logf)
}

// Run drives the node's table until ctx is done or Shutdown is called:
// a follower follows its feed (Follower.Run), any other node applies
// its churn source every ChurnEvery, through the feed on a compiler.
func (n *Node) Run(ctx context.Context) {
	n.running.Lock()
	defer n.running.Unlock()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(n.stopped, cancel)()
	switch {
	case n.cfg.Follower != nil:
		n.cfg.Follower.Run(ctx)
	case n.cfg.Churn != nil:
		n.churn(ctx)
	default:
		<-ctx.Done()
	}
}

// churn is the local churn loop. It re-reads its cadence each lap, so a
// reload retunes (or pauses) it without a restart. While disabled it
// idles on a 1 s re-check instead of exiting, so churn can be
// hot-enabled.
func (n *Node) churn(ctx context.Context) {
	for {
		every := n.tun.Load().ChurnEvery.Std()
		wait := every
		if every <= 0 {
			wait = time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
		if every <= 0 {
			continue
		}
		// A compiler node publishes through the feed so the delta is
		// sequenced and retained for followers before anything else
		// observes the new generation.
		var st churn.SwapStats
		if n.cfg.Feed != nil {
			st, _ = n.cfg.Feed.Apply(n.cfg.Churn.Next())
		} else {
			st = n.cfg.Table.Apply(n.cfg.Churn.Next())
		}
		n.cfg.Logf("clusterd: swap gen %d: +%d -%d ops; stability: %d carryover %d splits %d merges %d moved %d gained %d lost",
			st.Generation, st.Announced, st.Withdrawn,
			st.Carryover, st.Splits, st.Merges, st.Moved, st.Gained, st.Lost)
	}
}

// Shutdown drains the node in dependency order: readiness flips false
// (load balancers stop sending), Run stops (no point swapping tables
// for a dying process) and the batch streams end — idle ones at once, a
// busy one behind its answer — so a router sees a closed connection,
// not a node that stopped mid-frame. The streams are hijacked
// connections, which the http.Server serving Handler neither waits for
// nor closes; shut that server down after.
func (n *Node) Shutdown(ctx context.Context) error {
	n.draining.Store(true)
	n.stop()
	n.running.Lock()
	n.running.Unlock()
	return n.batch.Shutdown(ctx)
}

func (n *Node) handleLookup(w http.ResponseWriter, r *http.Request) {
	_, span := lookupSpan.Start(obsv.HTTPExtract(r.Context(), r.Header))
	defer span.End()
	if n.cfg.Shard != "" {
		span.SetAttr("shard", n.cfg.Shard)
	}
	addr, err := shard.LookupAddr(w, r)
	if err != nil {
		span.Fail(err)
		return
	}
	gen := n.cfg.Table.Generation()
	m, _ := n.cfg.Table.Load().Lookup(addr)
	lookupCount.Inc()
	shard.WriteLookup(w, addr, m, gen)
}

// handleHealthz is liveness: the process is up and the table is
// readable. It stays 200 while draining — kill a live-but-draining
// process and you lose its final flush.
func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c := n.cfg.Table.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Status     string  `json:"status"`
		Generation uint64  `json:"generation"`
		Prefixes   int     `json:"prefixes"`
		UptimeSec  float64 `json:"uptime_sec"`
	}{"ok", n.cfg.Table.Generation(), c.Len(), time.Since(n.started).Seconds()})
}

// handleReadyz is readiness: whether this node should receive traffic
// right now. False while draining and while the watched config file is
// failing validation.
func (n *Node) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if n.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if n.cfg.ConfigFile != nil {
		if err := n.cfg.ConfigFile.Status().Err; err != nil {
			reasons = append(reasons, "config rejected: "+err.Error())
		}
	}
	ready := len(reasons) == 0
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	body := struct {
		Ready      bool     `json:"ready"`
		Reasons    []string `json:"reasons,omitempty"`
		Generation uint64   `json:"generation"`
		FeedLag    *uint64  `json:"feed_lag_generations,omitempty"`
	}{Ready: ready, Reasons: reasons, Generation: n.cfg.Table.Generation()}
	if n.cfg.Follower != nil {
		// A follower reports its own distance behind the feed head, as
		// last measured by its lag monitor or a delta fetch. Lag is an
		// SLO signal, not a readiness gate: a lagging shard still answers
		// (with an older generation label), so it keeps traffic.
		lag := n.cfg.Follower.LastLag()
		body.FeedLag = &lag
	}
	json.NewEncoder(w).Encode(body)
}

// handleDebugConfig shows the effective runtime configuration: the
// resolved tunables and the config-file generation (0 when running on
// flags alone).
func (n *Node) handleDebugConfig(w http.ResponseWriter, r *http.Request) {
	body := struct {
		Generation uint64     `json:"generation"`
		Path       string     `json:"path,omitempty"`
		LoadedAt   *time.Time `json:"loaded_at,omitempty"`
		Effective  *Tunables  `json:"effective"`
		LastError  string     `json:"last_error,omitempty"`
	}{Effective: n.tun.Load()}
	if n.cfg.ConfigFile != nil {
		st := n.cfg.ConfigFile.Status()
		body.Generation, body.Path, body.LoadedAt = st.Generation, st.Path, &st.LoadedAt
		if st.Err != nil {
			body.LastError = st.Err.Error()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// admission is the batch admission gate: the dynamic semaphore plus the
// rejection and in-flight accounting around it.
type admission struct{ sem *dynamicSemaphore }

func (a admission) TryAcquire() bool {
	if !a.sem.TryAcquire() {
		batchRejected.Inc()
		return false
	}
	inflightGauge.Add(1)
	return true
}

func (a admission) Release() {
	a.sem.Release()
	inflightGauge.Add(-1)
}

// dynamicSemaphore is an admission semaphore whose capacity can be
// retargeted live (a channel's cannot). Shrinking below the in-flight
// count never evicts running work — admissions just stay closed until
// the count drains under the new cap.
type dynamicSemaphore struct {
	mu   sync.Mutex
	cap  int
	used int
}

func newDynamicSemaphore(n int) *dynamicSemaphore {
	return &dynamicSemaphore{cap: n}
}

// TryAcquire admits the caller if capacity allows; it never blocks
// (backpressure answers 503, it does not queue).
func (d *dynamicSemaphore) TryAcquire() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.used >= d.cap {
		return false
	}
	d.used++
	return true
}

func (d *dynamicSemaphore) Release() {
	d.mu.Lock()
	d.used--
	d.mu.Unlock()
}

// SetCap retargets the admission limit; in-flight work is untouched.
func (d *dynamicSemaphore) SetCap(n int) {
	d.mu.Lock()
	d.cap = n
	d.mu.Unlock()
}
