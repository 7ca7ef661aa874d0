// Command clusterd is the long-running clustering service: it serves
// longest-prefix-match lookups and batch clustering over HTTP while
// absorbing BGP announce/withdraw deltas online. The prefix table is
// published RCU-style (internal/churn), so lookups stay lock-free
// through every hot swap and a generation counter in each response
// records which table answered.
//
//	clusterd -addr 127.0.0.1:8349 -ases 300 -churn-every 2s
//
// The serving node itself — /lookup, POST /cluster, the routers' batch
// stream, /busy, /healthz, /readyz, /debug/config, the obsv debug
// surface and, on a compiler, /feed/ — is internal/node, the same node
// the in-process cluster harness runs; its package comment lists the
// endpoints. This command owns what is per-process: flags, the config
// file, signals, the boot choice, and what is written on the way out.
//
// Requests carrying an X-Netcluster-Trace header join the caller's
// trace: lookup and batch spans inherit the router's TraceID so
// per-process /debug/trace dumps merge into one cluster-wide trace.
//
// Flags seed every tunable. A -config file overrides the keys it names
// and is hot-reloaded: a polling watcher (and SIGHUP) re-reads it,
// validates, and swaps the accepted result in atomically via a
// generation pointer — admission limits, churn cadence, busy-cluster
// sizing and push-sink endpoints all retarget on a live process, and an
// invalid edit (an unknown key included) is rejected loudly while the
// previous generation keeps serving. The "sinks" key starts durable
// push exporters (internal/obsv/sink): delta batches WAL-journaled under
// -sink-dir and delivered with retry, backoff and a circuit breaker, so
// a dead collector never blocks the serving path.
//
// SIGTERM/SIGINT drain gracefully: readiness flips false, the churn or
// follow loop stops, routers' batch streams close behind the answer
// they owe, the listener stops accepting and in-flight requests finish
// (all bounded by the drain timeout), export queues flush and fsync
// within the same deadline (a wedged sink cannot hang shutdown — its
// backlog stays persisted in the WAL), and -metrics-out receives a
// final snapshot that agrees with the pushed series.
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
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/netaware/netcluster/internal/appconf"
	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/node"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/obsv/sink"
	"github.com/netaware/netcluster/internal/report"
	"github.com/netaware/netcluster/internal/shard"
)

func main() {
	def := node.DefaultTunables()
	ccfg := bgpsim.DefaultChurnConfig()
	addr := flag.String("addr", "127.0.0.1:8349", "listen address (use :0 to pick a free port)")
	ases := flag.Int("ases", 300, "synthetic world size (number of ASes)")
	seed := flag.Int64("seed", 1, "world/churn seed")
	churnEvery := flag.Duration("churn-every", def.ChurnEvery.Std(), "interval between churn deltas (0 disables churn)")
	meanBatch := flag.Int("mean-batch", ccfg.MeanBatch, "mean announce/withdraw ops per churn delta")
	burstiness := flag.Float64("burstiness", ccfg.Burstiness, "probability a churn delta is a burst (8x mean)")
	maxInflight := flag.Int("max-inflight", def.MaxInflight, "concurrent /cluster batches before 503 backpressure")
	maxBatch := flag.Int("max-batch", def.MaxBatch, "addresses per /cluster batch")
	maxBody := flag.Int64("max-body", def.MaxBodyBytes, "request body cap in bytes for /cluster")
	drainTimeout := flag.Duration("drain-timeout", def.DrainTimeout.Std(), "grace period for in-flight requests and sink flush on shutdown")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file on shutdown")
	tableSnapshot := flag.String("table-snapshot", "", "warm-start the prefix table from a compiled snapshot file (see tabletool compile) instead of generating a synthetic world; the .meta sidecar restores the generation/stream position and the table keeps absorbing deltas")
	snapshotOut := flag.String("snapshot-out", "", "write the final table + .meta sidecar to this file on shutdown, ready for a -table-snapshot warm start")
	feedServe := flag.Bool("feed-serve", false, "publish this node's churn deltas at /feed/ (compiler node of a sharded cluster)")
	feedURL := flag.String("feed", "", "follow a compiler node's delta feed at this base URL instead of churning locally (shard/replica node)")
	feedPoll := flag.Duration("feed-poll", shard.DefaultPollEvery, "delta-fetch cadence when following a feed")
	shardIndex := flag.Int("shard-index", 0, "this node's shard id in the cluster map (with -shard-count)")
	shardCount := flag.Int("shard-count", 0, "total shards in the cluster map; restricts the local table to this node's /8 range (0: keep the full table)")
	busyK := flag.Int("busy-k", def.BusyK, "how many busy clusters /busy reports with exact counts")
	busyCapacity := flag.Int("busy-capacity", 0, "monitored-counter budget for busy-cluster accounting (0: 8x busy-k)")
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
	var (
		keep     func(p netutil.Prefix) bool
		shardTag string
	)
	if *shardCount > 0 {
		if *shardIndex < 0 || *shardIndex >= *shardCount {
			fatal(fmt.Errorf("-shard-index %d out of range for -shard-count %d", *shardIndex, *shardCount))
		}
		keep = shard.NewMap(*shardCount).Keep(*shardIndex)
		shardTag = strconv.Itoa(*shardIndex)
		fmt.Fprintf(os.Stderr, "clusterd: shard %d/%d of the /8 map\n", *shardIndex, *shardCount)
	}
	if *feedServe && *feedURL != "" {
		fatal(fmt.Errorf("-feed-serve and -feed are mutually exclusive (no relay tier)"))
	}

	var (
		table    *churn.Table
		follower *shard.Follower  // non-nil when following a feed
		gen      *bgpsim.ChurnGen // local churn; nil in follower mode
		logf     = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	)
	ccfg.Seed = *seed
	ccfg.MeanBatch = *meanBatch
	ccfg.Burstiness = *burstiness
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
		gen = bgpsim.NewChurnGen(bgp.UniverseOf(tf.Table(), "snapshot-churn"), ccfg)
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
		merged, g, err := node.SyntheticWorld(*ases, *seed, ccfg)
		if err != nil {
			fatal(err)
		}
		gen = g
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

	flagTun := node.Tunables{
		MaxInflight:  *maxInflight,
		MaxBatch:     *maxBatch,
		MaxBodyBytes: *maxBody,
		ChurnEvery:   appconf.Duration(*churnEvery),
		DrainTimeout: appconf.Duration(*drainTimeout),
		BusyK:        *busyK,
		BusyCapacity: *busyCapacity,
	}

	if *sinkDir == "" {
		*sinkDir = os.TempDir() + "/clusterd-sinks"
	}
	sinks := sink.NewManager(*sinkDir, sink.Options{Defaults: sink.Config{
		HighWater: *sinkHighWater,
		Logf:      logf,
	}})

	// The watcher loads the file before the node exists: its first
	// generation becomes the node's initial tunables, and every later
	// swap — on the watcher's goroutine — waits until the node is built,
	// then reloads it.
	var (
		n       *node.Node
		built   = make(chan struct{})
		tun     = flagTun
		watcher *appconf.Watcher[fileConfig] // nil without -config
		file    node.ConfigFile
	)
	if *configPath != "" {
		w, err := appconf.Watch(*configPath, parseFileConfig, appconf.Options[fileConfig]{
			PollInterval: *configPoll,
			OnSwap: func(old, cur *appconf.Loaded[fileConfig]) {
				t := merge(flagTun, cur.Config, explicit, logf)
				if old == nil {
					tun = t
				} else {
					<-built
					n.Reload(t)
				}
				if err := sinks.Apply(toSinkSpecs(cur.Config.Sinks)); err != nil {
					// Specs were validated at parse; this is an environment
					// failure (WAL dir unwritable). The previous sink set serves.
					logf("clusterd: sink reconcile: %v", err)
				}
				logf("clusterd: config generation %d applied: max-inflight %d, max-batch %d, churn-every %v, %d sink(s)",
					cur.Generation, t.MaxInflight, t.MaxBatch, t.ChurnEvery.Std(), len(cur.Config.Sinks))
			},
			Logf: logf,
		})
		if err != nil {
			fatal(err)
		}
		watcher, file = w, w
	}

	var feed *shard.Feed // non-nil with -feed-serve
	if follower != nil {
		// The delta stream replaces local churn: Run polls until drain,
		// resyncing through partitions and log-retention gaps. The lag
		// monitor probes /feed/status faster than the delta poll, so the
		// reported lag rises between (or during stalled) fetches instead
		// of only moving when a fetch succeeds.
		follower.PollEvery = *feedPoll
		follower.MonitorEvery = min(max(*feedPoll/4, 50*time.Millisecond), time.Second)
		follower.Logf = logf
	} else if *feedServe {
		feed = shard.NewFeed(table, 0)
		logf("clusterd: serving delta feed at %s (head seq %d)", shard.DeltasPath, feed.Head())
	}

	n, err := node.New(node.Config{
		Table:      table,
		Tunables:   tun,
		Follower:   follower,
		Feed:       feed,
		Churn:      gen,
		Shard:      shardTag,
		ConfigFile: file,
		Sinks:      sinks,
		Logf:       logf,
	})
	if err != nil {
		fatal(err)
	}
	close(built)
	go n.Run(context.Background())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Announce the resolved address so ':0' users (and tests) can find it.
	fmt.Fprintf(os.Stderr, "clusterd: serving on http://%s (churn every %v, max-inflight %d)\n",
		ln.Addr(), n.Tunables().ChurnEvery.Std(), n.Tunables().MaxInflight)

	srv := &http.Server{Handler: n.Handler()}
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
				if watcher == nil {
					fmt.Fprintln(os.Stderr, "clusterd: SIGHUP with no -config file, nothing to reload")
					continue
				}
				if swapped, err := watcher.Reload(); err != nil {
					fmt.Fprintf(os.Stderr, "clusterd: SIGHUP reload rejected: %v\n", err)
				} else if swapped {
					fmt.Fprintf(os.Stderr, "clusterd: SIGHUP reload: generation %d live\n", watcher.Generation())
				}
				continue
			}
			fmt.Fprintf(os.Stderr, "clusterd: %v, draining\n", sig)
			break loop
		}
	}

	// Graceful drain, in dependency order: the node flips readiness,
	// stops churning and ends its batch streams; in-flight requests
	// finish, then export queues flush and fsync within the same deadline
	// — a wedged sink cannot hang shutdown; its backlog stays persisted in
	// the WAL. The metrics snapshot is written last so it agrees with the
	// pushed series.
	dctx, cancel := context.WithTimeout(context.Background(), n.Tunables().DrainTimeout.Std())
	defer cancel()
	if err := n.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "clusterd: drain: batch streams: %v\n", err)
	}
	if watcher != nil {
		watcher.Close()
	}
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "clusterd: drain: %v\n", err)
	}
	if err := sinks.Close(dctx); err != nil {
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
