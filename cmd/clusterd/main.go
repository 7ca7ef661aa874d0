// Command clusterd is the long-running clustering service: it serves
// longest-prefix-match lookups and batch clustering over HTTP while
// absorbing BGP announce/withdraw deltas online. The prefix table is
// published RCU-style (internal/churn), so lookups stay lock-free
// through every hot swap and a generation counter in each response
// records which table answered.
//
//	clusterd -addr 127.0.0.1:8349 -ases 300 -churn-every 2s
//
// Endpoints:
//
//	GET  /lookup?addr=12.65.147.94   one address → cluster prefix JSON
//	POST /cluster                    newline-separated addresses → JSON
//	GET  /cluster/stream             a clusterrouter's upgrade to a batch
//	                                 stream: columnar batch frames in and
//	                                 out on a connection that stays open
//	                                 (internal/shard stream.go)
//	GET  /busy?k=20                  current top-K busy clusters, from
//	                                 the bounded accumulator every batch
//	                                 feeds (-busy-k, -sketch-epsilon)
//	GET  /healthz                    liveness + table generation
//	GET  /readyz                     readiness (false while draining,
//	                                 while the config file is invalid, or
//	                                 while export backlogs run high);
//	                                 follower nodes also report their
//	                                 feed lag in generations
//	GET  /debug/config               live config generation + sink status
//	GET  /metrics, /metrics.json, /debug/...
//	                                 obsv debug surface (Prometheus text,
//	                                 JSON snapshot — what a clusterrouter
//	                                 aggregator scrapes — expvar, pprof,
//	                                 flight trace)
//	GET  /feed/deltas, /feed/snapshot, /feed/status
//	                                 delta distribution (with -feed-serve)
//
// Requests carrying an X-Netcluster-Trace header join the caller's
// trace: lookup and batch spans inherit the router's TraceID so
// per-process /debug/trace dumps merge into one cluster-wide trace.
//
// The batch endpoint is admission-controlled: at most max-inflight
// batches run concurrently; beyond that clusterd answers 503 with
// Retry-After instead of queueing unboundedly (backpressure, not
// collapse).
//
// Flags seed every tunable. A -config file overrides the keys it names
// and is hot-reloaded: a polling watcher (and SIGHUP) re-reads it,
// validates, and swaps the accepted result in atomically via a
// generation pointer — admission limits, churn cadence and push-sink
// endpoints all retarget on a live process, and an invalid edit is
// rejected loudly while the previous generation keeps serving. The
// "sinks" key starts durable push exporters (internal/obsv/sink): delta
// batches WAL-journaled under -sink-dir and delivered with retry,
// backoff and a circuit breaker, so a dead collector never blocks the
// serving path.
//
// SIGTERM/SIGINT drain gracefully: readiness flips false, the listener
// stops accepting, in-flight requests finish and routers' batch streams
// close behind the answer they owe (bounded by the drain timeout), the
// churn loop stops, export queues flush and fsync within
// the same deadline (a wedged sink cannot hang shutdown — its backlog
// stays persisted in the WAL), and -metrics-out receives a final
// snapshot that agrees with the pushed series.
//
// Churn is synthetic: the same bgpsim world that seeds the table also
// drives a bursty announce/withdraw schedule (-churn-every, -mean-batch,
// -burstiness), so a deployment-shaped soak run needs no external feed.
//
// Cluster roles. A clusterd can also be one node of a sharded cluster
// (internal/shard, cmd/clusterrouter):
//
//   - Compiler node: -feed-serve assigns every churn delta a sequence
//     number and publishes it at /feed/ (deltas, catch-up snapshot,
//     status), so follower nodes advance generation-for-generation in
//     lockstep with this table.
//   - Shard node: -feed http://compiler:8349 follows that stream
//     instead of churning locally; -shard-index/-shard-count restrict
//     the local table to the node's slice of the /8 shard map.
//
// A -table-snapshot boot is a warm start, not a frozen table: the
// snapshot's .meta sidecar (written by tabletool compile and by
// -snapshot-out on drain) records the stream position, the compiler is
// rebuilt around the loaded table, and the node either rejoins the
// delta feed from that position (-feed) or resumes local synthetic
// churn over the snapshot's own BGP prefixes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/netaware/netcluster/internal/appconf"
	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/inet"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/obsv/sink"
	"github.com/netaware/netcluster/internal/report"
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

type server struct {
	table   *churn.Table
	sem     *dynamicSemaphore
	tun     atomic.Pointer[tunables]
	busy    *busyTracker
	started time.Time

	draining atomic.Bool
	watcher  *appconf.Watcher[fileConfig] // nil without -config
	sinks    *sink.Manager
	follower *shard.Follower // non-nil in follower mode; feeds readiness lag
}

func (s *server) handleLookup(w http.ResponseWriter, r *http.Request) {
	_, span := lookupSpan.Start(obsv.HTTPExtract(r.Context(), r.Header))
	defer span.End()
	addr, err := shard.LookupAddr(w, r)
	if err != nil {
		span.Fail(err)
		return
	}
	gen := s.table.Generation()
	m, _ := s.table.Load().Lookup(addr)
	lookupCount.Inc()
	shard.WriteLookup(w, addr, m, gen)
}

// batchHandler mounts the shared batch-serving core (shard.BatchHandler,
// the pipeline a NodeServer runs too) with this process's policy around
// it: the admission semaphore, the limits of one pinned config
// generation — a reload cannot change the rules on a request it already
// admitted — and the busy-cluster accumulator every resolved batch
// folds into (one lock per batch, fixed memory regardless of how many
// distinct clusters the firehose touches).
func (s *server) batchHandler() *shard.BatchHandler {
	return &shard.BatchHandler{
		Table:     s.table,
		BatchSpan: batchSpan,
		TableSpan: batchLookupSpan,
		Batches:   batchCount,
		Addrs:     batchAddrs,
		Limits: func() shard.Limits {
			tun := s.tun.Load()
			return shard.Limits{MaxBatch: tun.MaxBatch, MaxBody: tun.MaxBodyBytes}
		},
		Admission: admission{s.sem},
		Observe:   s.busy.observeMatches,
	}
}

// admission is the /cluster admission gate: the dynamic semaphore plus
// the rejection and in-flight accounting around it.
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

// handleHealthz is liveness: the process is up and the table is
// readable. It stays 200 while draining — kill a live-but-draining
// process and you lose its final flush.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c := s.table.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Status     string  `json:"status"`
		Generation uint64  `json:"generation"`
		Prefixes   int     `json:"prefixes"`
		UptimeSec  float64 `json:"uptime_sec"`
	}{"ok", s.table.Generation(), c.Len(), time.Since(s.started).Seconds()})
}

// handleReadyz is readiness: whether this instance should receive
// traffic right now. False while draining, while the watched config file
// is failing validation, and while any export backlog sits above its
// high-water mark.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if s.watcher != nil && !s.watcher.Healthy() {
		reasons = append(reasons, "config rejected: "+s.watcher.LastError().Error())
	}
	if s.sinks != nil && !s.sinks.Healthy() {
		reasons = append(reasons, "export backlog above high-water mark")
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
	}{Ready: ready, Reasons: reasons, Generation: s.table.Generation()}
	if s.follower != nil {
		// Follower nodes report their generation distance behind the feed
		// head, as last measured by the lag monitor or a delta fetch. Lag
		// is an SLO signal, not a readiness gate: a lagging shard still
		// answers (with an older generation label), so it keeps traffic.
		lag := uint64(obsv.TakeSnapshot().Gauges["shard.feed.lag.generations"])
		body.FeedLag = &lag
	}
	json.NewEncoder(w).Encode(body)
}

// handleDebugConfig shows the effective runtime configuration: the
// resolved tunables, the config-file generation (0 when running on
// flags alone), and every push sink's operational position.
func (s *server) handleDebugConfig(w http.ResponseWriter, r *http.Request) {
	body := struct {
		Generation uint64            `json:"generation"`
		Path       string            `json:"path,omitempty"`
		LoadedAt   *time.Time        `json:"loaded_at,omitempty"`
		Effective  *tunables         `json:"effective"`
		LastError  string            `json:"last_error,omitempty"`
		Sinks      []sink.SinkStatus `json:"sinks,omitempty"`
	}{Effective: s.tun.Load()}
	if s.watcher != nil {
		cur := s.watcher.Current()
		body.Generation = cur.Generation
		body.Path = cur.Path
		t := cur.LoadedAt
		body.LoadedAt = &t
		if err := s.watcher.LastError(); err != nil {
			body.LastError = err.Error()
		}
	}
	if s.sinks != nil {
		body.Sinks = s.sinks.Status()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8349", "listen address (use :0 to pick a free port)")
	ases := flag.Int("ases", 300, "synthetic world size (number of ASes)")
	seed := flag.Int64("seed", 1, "world/churn seed")
	churnEvery := flag.Duration("churn-every", 2*time.Second, "interval between churn deltas (0 disables churn)")
	meanBatch := flag.Int("mean-batch", 32, "mean announce/withdraw ops per churn delta")
	burstiness := flag.Float64("burstiness", 0.15, "probability a churn delta is a burst (8x mean)")
	maxInflight := flag.Int("max-inflight", 8, "concurrent /cluster batches before 503 backpressure")
	maxBatch := flag.Int("max-batch", 100000, "addresses per /cluster batch")
	maxBody := flag.Int64("max-body", 8<<20, "request body cap in bytes for /cluster")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests and sink flush on shutdown")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file on shutdown")
	tableSnapshot := flag.String("table-snapshot", "", "warm-start the prefix table from a compiled snapshot file (see tabletool compile) instead of generating a synthetic world; the .meta sidecar restores the generation/stream position and the table keeps absorbing deltas")
	snapshotOut := flag.String("snapshot-out", "", "write the final table + .meta sidecar to this file on shutdown, ready for a -table-snapshot warm start")
	feedServe := flag.Bool("feed-serve", false, "publish this node's churn deltas at /feed/ (compiler node of a sharded cluster)")
	feedURL := flag.String("feed", "", "follow a compiler node's delta feed at this base URL instead of churning locally (shard/replica node)")
	feedPoll := flag.Duration("feed-poll", shard.DefaultPollEvery, "delta-fetch cadence when following a feed")
	shardIndex := flag.Int("shard-index", 0, "this node's shard id in the cluster map (with -shard-count)")
	shardCount := flag.Int("shard-count", 0, "total shards in the cluster map; restricts the local table to this node's /8 range (0: keep the full table)")
	busyK := flag.Int("busy-k", 100, "how many busy clusters /busy reports with exact counts")
	busyCapacity := flag.Int("busy-capacity", 0, "monitored-counter budget for busy-cluster accounting (0: 8x busy-k)")
	sketchEpsilon := flag.Float64("sketch-epsilon", 1e-4, "tail sketch error bound: unmonitored cluster estimates overshoot by at most epsilon x total requests")
	sketchDelta := flag.Float64("sketch-delta", 0.01, "tail sketch failure probability for the epsilon bound")
	sketchSpill := flag.String("sketch-spill", "sketch", "what happens to evicted clusters: 'sketch' keeps them queryable within the error bound, 'drop' halves the footprint")
	configPath := flag.String("config", "", "watched JSON config file; its keys override flags and hot-reload")
	configPoll := flag.Duration("config-poll", 2*time.Second, "poll interval for -config changes")
	sinkDir := flag.String("sink-dir", "", "directory for push-sink WALs (default: <tmp>/clusterd-sinks)")
	sinkHighWater := flag.Int("sink-high-water", 0, "export backlog depth that flips readiness false (0: queue capacity)")
	flag.Parse()

	// Distinct processes must mint distinct trace/span IDs or merged
	// cluster traces alias; the PID salt keeps each binary's sequences in
	// a disjoint range.
	obsv.SetTraceIDSalt(uint64(os.Getpid()) << 40)

	// Flags the operator set explicitly — the set a config-file key
	// shadows loudly rather than silently.
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// keep restricts the local table to this node's shard range when the
	// shard flags are set; nil keeps the full table.
	var keep func(p netutil.Prefix) bool
	if *shardCount > 0 {
		if *shardIndex < 0 || *shardIndex >= *shardCount {
			fatal(fmt.Errorf("-shard-index %d out of range for -shard-count %d", *shardIndex, *shardCount))
		}
		keep = shard.NewMap(*shardCount).Keep(*shardIndex)
		fmt.Fprintf(os.Stderr, "clusterd: shard %d/%d of the /8 map\n", *shardIndex, *shardCount)
	}
	if *feedServe && *feedURL != "" {
		fatal(fmt.Errorf("-feed-serve and -feed are mutually exclusive (no relay tier)"))
	}

	var (
		table    *churn.Table
		follower *shard.Follower // non-nil when following a feed
		universe *bgp.Snapshot   // local-churn universe; nil in follower mode
		logf     = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	)
	switch {
	case *feedURL != "" && *tableSnapshot != "":
		// Warm start from disk, then rejoin the stream from the sidecar's
		// position — a stale snapshot costs one resync, never a wrong table.
		tf, err := bgp.OpenTable(*tableSnapshot)
		if err != nil {
			fatal(fmt.Errorf("table snapshot %s: %w", *tableSnapshot, err))
		}
		meta, ok, err := bgp.LoadTableMeta(*tableSnapshot)
		if err != nil {
			fatal(fmt.Errorf("table snapshot %s: %w", *tableSnapshot, err))
		}
		if !ok {
			logf("clusterd: no .meta sidecar for %s, rejoining from seq 0 (expect a resync)", *tableSnapshot)
		}
		follower = shard.RejoinFromSnapshot(*feedURL, nil, tf.Table(), meta, keep)
		if err := tf.Close(); err != nil { // the rebuild copied everything
			fatal(err)
		}
		table = follower.Table
		logf("clusterd: warm start from %s at generation %d (stream seq %d), following feed %s",
			*tableSnapshot, meta.Generation, meta.Seq, *feedURL)
	case *feedURL != "":
		// Cold join: seed from the feed's catch-up snapshot.
		fl, err := shard.Join(*feedURL, nil, keep)
		if err != nil {
			fatal(fmt.Errorf("feed join %s: %w", *feedURL, err))
		}
		follower = fl
		table = follower.Table
		logf("clusterd: joined feed %s at seq %d", *feedURL, follower.Seq())
	case *tableSnapshot != "":
		// Warm start with no upstream: rebuild the compiler around the
		// snapshot and keep churning locally over its own BGP prefixes.
		tf, err := bgp.OpenTable(*tableSnapshot)
		if err != nil {
			fatal(fmt.Errorf("table snapshot %s: %w", *tableSnapshot, err))
		}
		meta, ok, err := bgp.LoadTableMeta(*tableSnapshot)
		if err != nil {
			fatal(fmt.Errorf("table snapshot %s: %w", *tableSnapshot, err))
		}
		mode := "copied"
		if tf.Mapped() {
			mode = "mmapped"
		}
		table = churn.NewFromCompiled(tf.Table(), keep, meta.Generation)
		universe = bgp.UniverseOf(tf.Table(), "snapshot-churn")
		if err := tf.Close(); err != nil { // the rebuild copied everything
			fatal(err)
		}
		c0 := table.Load()
		sidecar := fmt.Sprintf("generation %d", meta.Generation)
		if !ok {
			sidecar = "no sidecar, generation 0"
		}
		fmt.Fprintf(os.Stderr, "clusterd: table snapshot %s (%s, %s): %s BGP + %s registry prefixes, %s nodes\n",
			*tableSnapshot, mode, sidecar,
			report.FmtInt(c0.NumPrimary()), report.FmtInt(c0.NumSecondary()), report.FmtInt(c0.NumNodes()))
	default:
		wcfg := inet.DefaultConfig()
		wcfg.NumASes = *ases
		wcfg.Seed = *seed
		world, err := inet.Generate(wcfg)
		if err != nil {
			fatal(err)
		}
		scfg := bgpsim.DefaultConfig()
		scfg.Seed = *seed
		sim := bgpsim.New(world, scfg)
		coll := sim.Collect()
		merged := bgpsim.Merge(coll)
		// The churn universe is the union of every BGP vantage's entries;
		// the registry (secondary) prefixes stay static, as the paper's
		// network dumps did across its testing periods.
		universe = &bgp.Snapshot{Name: "bgpsim-churn", Kind: bgp.SourceBGP}
		for _, v := range coll.Views {
			universe.Entries = append(universe.Entries, v.Entries...)
		}
		if keep == nil {
			table = churn.New(merged)
		} else {
			// Sharded but self-churning (mostly a test rig): compile the
			// full world, then cut the table down to the owned range.
			table = churn.NewFromCompiled(bgp.NewIncremental(merged).Compiled(), keep, 0)
		}
		c0 := table.Load()
		fmt.Fprintf(os.Stderr, "clusterd: table generation 0: %s BGP + %s registry prefixes, %s nodes\n",
			report.FmtInt(c0.NumPrimary()), report.FmtInt(c0.NumSecondary()), report.FmtInt(c0.NumNodes()))
	}

	flagTun := tunables{
		MaxInflight:   *maxInflight,
		MaxBatch:      *maxBatch,
		MaxBodyBytes:  *maxBody,
		ChurnEvery:    appconf.Duration(*churnEvery),
		DrainTimeout:  appconf.Duration(*drainTimeout),
		BusyK:         *busyK,
		BusyCapacity:  *busyCapacity,
		SketchEpsilon: *sketchEpsilon,
		SketchDelta:   *sketchDelta,
		SketchSpill:   *sketchSpill,
	}
	busy, err := newBusyTracker(flagTun.boundedConfig())
	if err != nil {
		fatal(err)
	}
	s := &server{
		table:    table,
		sem:      newDynamicSemaphore(flagTun.MaxInflight),
		busy:     busy,
		started:  time.Now(),
		follower: follower,
	}
	s.tun.Store(&flagTun)

	if *sinkDir == "" {
		*sinkDir = os.TempDir() + "/clusterd-sinks"
	}
	s.sinks = sink.NewManager(*sinkDir, sink.Options{Defaults: sink.Config{
		HighWater: *sinkHighWater,
		Logf:      logf,
	}})

	// applyConfig resolves one accepted file generation into the live
	// tunables, the admission semaphore and the sink set — the swap the
	// watcher (and SIGHUP) drives.
	applyConfig := func(old, cur *appconf.Loaded[fileConfig]) {
		t := merge(flagTun, cur.Config, explicit, logf)
		s.tun.Store(&t)
		s.sem.SetCap(t.MaxInflight)
		s.busy.reconfigure(t.boundedConfig(), logf)
		if err := s.sinks.Apply(toSinkSpecs(cur.Config.Sinks)); err != nil {
			// Specs were validated at parse; this is an environment
			// failure (WAL dir unwritable). The previous sink set serves.
			logf("clusterd: sink reconcile: %v", err)
		}
		logf("clusterd: config generation %d applied: max-inflight %d, max-batch %d, churn-every %v, %d sink(s)",
			cur.Generation, t.MaxInflight, t.MaxBatch, t.ChurnEvery.Std(), len(cur.Config.Sinks))
	}
	if *configPath != "" {
		w, err := appconf.Watch(*configPath, parseFileConfig, appconf.Options[fileConfig]{
			PollInterval: *configPoll,
			OnSwap:       applyConfig,
			Logf:         logf,
		})
		if err != nil {
			fatal(err)
		}
		s.watcher = w
	}

	churnCtx, stopChurn := context.WithCancel(context.Background())
	churnDone := make(chan struct{})
	var feed *shard.Feed // non-nil with -feed-serve
	switch {
	case follower != nil:
		// Follower mode: the delta stream replaces local churn. Run polls
		// until drain, resyncing through partitions and log-retention gaps.
		follower.PollEvery = *feedPoll
		follower.Logf = logf
		// The lag monitor probes /feed/status faster than the delta poll,
		// so the feed-lag gauge rises between (or during stalled) fetches
		// instead of only moving when a fetch succeeds.
		monitor := *feedPoll / 4
		if monitor < 50*time.Millisecond {
			monitor = 50 * time.Millisecond
		}
		if monitor > time.Second {
			monitor = time.Second
		}
		follower.MonitorEvery = monitor
		go func() {
			defer close(churnDone)
			follower.Run(churnCtx)
		}()
	default:
		if *feedServe {
			feed = shard.NewFeed(table, 0)
			logf("clusterd: serving delta feed at %s (head seq %d)", shard.DeltasPath, feed.Head())
		}
		ccfg := bgpsim.DefaultChurnConfig()
		ccfg.Seed = *seed
		ccfg.MeanBatch = *meanBatch
		ccfg.Burstiness = *burstiness
		gen := bgpsim.NewChurnGen(universe, ccfg)

		// The churn loop re-reads its cadence each lap, so a config reload
		// retunes (or pauses) it without a restart. While disabled it idles
		// on a 1 s re-check instead of exiting, so churn can be hot-enabled.
		go func() {
			defer close(churnDone)
			for {
				every := s.tun.Load().ChurnEvery.Std()
				wait := every
				if every <= 0 {
					wait = time.Second
				}
				select {
				case <-churnCtx.Done():
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
				if feed != nil {
					st, _ = feed.Apply(gen.Next())
				} else {
					st = table.Apply(gen.Next())
				}
				fmt.Fprintf(os.Stderr,
					"clusterd: swap gen %d: +%d -%d ops; stability: %d carryover %d splits %d merges %d moved %d gained %d lost\n",
					st.Generation, st.Announced, st.Withdrawn,
					st.Carryover, st.Splits, st.Merges, st.Moved, st.Gained, st.Lost)
			}
		}()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", s.handleLookup)
	batch := s.batchHandler()
	mux.Handle("/cluster", batch)
	mux.HandleFunc(shard.StreamPath, batch.ServeStream)
	mux.HandleFunc("/busy", s.busy.handleBusy)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/config", s.handleDebugConfig)
	if feed != nil {
		fh := feed.Handler()
		mux.Handle(shard.DeltasPath, fh)
		mux.Handle(shard.SnapshotPath, fh)
		mux.Handle(shard.StatusPath, fh)
	}
	debug := obsv.DebugHandler()
	mux.Handle("/metrics", debug)
	mux.Handle("/metrics.json", debug)
	mux.Handle("/debug/", debug)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Announce the resolved address so ':0' users (and tests) can find it.
	fmt.Fprintf(os.Stderr, "clusterd: serving on http://%s (churn every %v, max-inflight %d)\n",
		ln.Addr(), s.tun.Load().ChurnEvery.Std(), s.sem.Cap())

	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
loop:
	for {
		select {
		case err := <-errc:
			fatal(err)
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				if s.watcher == nil {
					fmt.Fprintln(os.Stderr, "clusterd: SIGHUP with no -config file, nothing to reload")
					continue
				}
				if swapped, err := s.watcher.Reload(); err != nil {
					fmt.Fprintf(os.Stderr, "clusterd: SIGHUP reload rejected: %v\n", err)
				} else if swapped {
					fmt.Fprintf(os.Stderr, "clusterd: SIGHUP reload: generation %d live\n", s.watcher.Generation())
				}
				continue
			}
			fmt.Fprintf(os.Stderr, "clusterd: %v, draining\n", sig)
			break loop
		}
	}

	// Graceful drain, in dependency order: readiness flips first (load
	// balancers stop sending), churn stops (no point swapping tables for
	// a dying process), in-flight requests finish, then export queues
	// flush and fsync within the same deadline — a wedged sink cannot
	// hang shutdown; its backlog stays persisted in the WAL. The metrics
	// snapshot is written last so it agrees with the pushed series.
	s.draining.Store(true)
	stopChurn()
	<-churnDone
	if s.watcher != nil {
		s.watcher.Close()
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.tun.Load().DrainTimeout.Std())
	defer cancel()
	// A router's batch streams are hijacked connections, which
	// srv.Shutdown neither waits for nor closes: end them first — idle
	// ones at once, a busy one behind its answer — so the router sees a
	// closed connection, not a node that stopped mid-frame.
	if err := batch.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "clusterd: drain: batch streams: %v\n", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "clusterd: drain: %v\n", err)
	}
	if err := s.sinks.Close(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "clusterd: sink flush: %v\n", err)
	}
	if *snapshotOut != "" {
		// Churn is stopped and requests are drained, so this is the final
		// table; the sidecar records where in the stream it stands so the
		// next boot warm-starts instead of recompiling the world.
		seq := table.Generation()
		if follower != nil {
			seq = follower.Seq()
		} else if feed != nil {
			seq = feed.Head()
		}
		if err := bgp.SaveTable(*snapshotOut, table.Load()); err != nil {
			fatal(fmt.Errorf("table snapshot: %w", err))
		}
		if err := bgp.SaveTableMeta(*snapshotOut, bgp.TableMeta{Generation: table.Generation(), Seq: seq}); err != nil {
			fatal(fmt.Errorf("table snapshot sidecar: %w", err))
		}
		fmt.Fprintf(os.Stderr, "clusterd: table snapshot written to %s (generation %d, seq %d)\n",
			*snapshotOut, table.Generation(), seq)
	}
	if *metricsOut != "" {
		if err := obsv.WriteFile(*metricsOut); err != nil {
			fatal(fmt.Errorf("metrics snapshot: %w", err))
		}
		fmt.Fprintf(os.Stderr, "clusterd: metrics snapshot written to %s\n", *metricsOut)
	}
	fmt.Fprintf(os.Stderr, "clusterd: drained at generation %d, bye\n", table.Generation())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "clusterd: %v\n", err)
	os.Exit(1)
}
