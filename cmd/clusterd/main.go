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
// stream, /busy, /healthz, /readyz, the obsv debug surface and, on a
// compiler, /feed/ — is internal/node, the same node the in-process
// cluster harness runs; its package comment lists the endpoints. This
// command owns what is per-process: flags, signals, the boot choice,
// and what is written on the way out.
//
// Requests carrying an X-Netcluster-Trace header join the caller's
// trace: lookup and batch spans inherit the router's TraceID so
// per-process /debug/trace dumps merge into one cluster-wide trace.
//
// Flags are the only configuration. Restart is the reload: to change a
// tunable, SIGTERM the node with -snapshot-out and start it again on the
// same address with -table-snapshot and the new flags. A shard behind a
// clusterrouter loses only its own rows, and only for the moment it is
// down (DESIGN.md §12). SIGHUP is ignored.
//
// Metrics are pulled, never pushed: /debug/vars, /metrics and
// /metrics.json on the node's port, and -metrics-out on the way out.
// -sink-dir is still accepted and ignored, for scripts that pass it.
//
// SIGTERM/SIGINT drain gracefully: readiness flips false, the churn or
// follow loop stops, routers' batch streams close behind the answer
// they owe, the listener stops accepting and in-flight requests finish
// (all bounded by the drain timeout), and -metrics-out receives a final
// snapshot.
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

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/node"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/report"
	"github.com/netaware/netcluster/internal/shard"
)

func main() {
	def := node.DefaultTunables()
	ccfg := bgpsim.DefaultChurnConfig()
	addr := flag.String("addr", "127.0.0.1:8349", "listen address (use :0 to pick a free port)")
	ases := flag.Int("ases", 300, "synthetic world size (number of ASes)")
	seed := flag.Int64("seed", 1, "world/churn seed")
	churnEvery := flag.Duration("churn-every", def.ChurnEvery, "interval between churn deltas (0 disables churn)")
	meanBatch := flag.Int("mean-batch", ccfg.MeanBatch, "mean announce/withdraw ops per churn delta")
	burstiness := flag.Float64("burstiness", ccfg.Burstiness, "probability a churn delta is a burst (8x mean)")
	maxInflight := flag.Int("max-inflight", def.MaxInflight, "concurrent /cluster batches before 503 backpressure")
	maxBatch := flag.Int("max-batch", def.MaxBatch, "addresses per /cluster batch")
	maxBody := flag.Int64("max-body", def.MaxBodyBytes, "request body cap in bytes for /cluster")
	drainTimeout := flag.Duration("drain-timeout", def.DrainTimeout, "grace period for in-flight requests on shutdown")
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
	flag.String("sink-dir", "", "ignored; kept until benchmark/serving.go stops passing it (ROADMAP 7(f))")
	flag.Parse()

	// Distinct processes must mint distinct trace/span IDs or merged
	// cluster traces alias; the PID salt keeps each binary's sequences in
	// a disjoint range.
	obsv.SetTraceIDSalt(uint64(os.Getpid()) << 40)

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

	tun := node.Tunables{
		MaxInflight:  *maxInflight,
		MaxBatch:     *maxBatch,
		MaxBodyBytes: *maxBody,
		ChurnEvery:   *churnEvery,
		DrainTimeout: *drainTimeout,
		BusyK:        *busyK,
		BusyCapacity: *busyCapacity,
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
		Table:    table,
		Tunables: tun,
		Follower: follower,
		Feed:     feed,
		Churn:    gen,
		Shard:    shardTag,
		Logf:     logf,
	})
	if err != nil {
		fatal(err)
	}
	go n.Run(context.Background())

	// Signals are caught before the announce: once a caller has read
	// "serving on", SIGTERM drains rather than killing the process.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	signal.Ignore(syscall.SIGHUP)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Announce the resolved address so ':0' users (and tests) can find it.
	fmt.Fprintf(os.Stderr, "clusterd: serving on http://%s (churn every %v, max-inflight %d)\n",
		ln.Addr(), tun.ChurnEvery, tun.MaxInflight)

	srv := &http.Server{Handler: n.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "clusterd: %v, draining\n", sig)
	}

	// Graceful drain, in dependency order: the node flips readiness,
	// stops churning and ends its batch streams; in-flight requests
	// finish within the drain deadline. The metrics snapshot is written
	// last, so it counts every request served.
	dctx, cancel := context.WithTimeout(context.Background(), tun.DrainTimeout)
	defer cancel()
	if err := n.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "clusterd: drain: batch streams: %v\n", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "clusterd: drain: %v\n", err)
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
