// Command clusterrouter fronts a sharded clusterd deployment: it owns
// the versioned /8 shard map, fans batch clustering requests out to the
// shard nodes, and merges the answers back into input order. One router
// plus N shard clusterds (each running with -feed and -shard-index)
// serves the same wire format as a single clusterd, so clients migrate
// by repointing a URL. The router itself talks to the shard nodes on
// persistent batch streams (internal/shard stream.go) carrying columnar
// batch frames, which every clusterd serves at /cluster/stream on the
// same listener.
//
//	clusterrouter -addr 127.0.0.1:8350 \
//	    -shards http://127.0.0.1:8361,http://127.0.0.1:8362,http://127.0.0.1:8363
//
// Endpoints:
//
//	POST /cluster    fan-out batch; results in input order, Degradation
//	                 map when shards are down (partial, never wrong)
//	GET  /lookup     single-address proxy to the owning shard
//	GET  /shardmap   the live shard map (version, block ranges, addrs)
//	GET  /healthz    fan-out probe; 200 with a degraded report
//	GET  /readyz     readiness: 503 while draining or with no live
//	                 shard; reports live-shard count + scrape staleness
//	GET  /metrics/cluster  federated Prometheus page: every shard's
//	                 series labeled {shard="i"} plus cluster-wide
//	                 quantiles merged from the shards' histograms
//	GET  /metrics, /metrics.json, /debug/...  obsv debug surface
//
// Requests carrying an X-Netcluster-Trace header join the caller's
// trace; the router's fan-out spans and every shard's server-side spans
// share that TraceID, so the per-process /debug/trace dumps merge into
// one cluster-wide trace (tracecheck -merge).
//
// Failure is partial by design: a dead shard costs only its own rows,
// which come back with an Error annotation and a zero answer, and the
// batch reports the outage in its Degradation map instead of failing.
// SIGTERM/SIGINT drain in-flight fan-outs before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/shard"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8350", "listen address (use :0 to pick a free port)")
	shards := flag.String("shards", "", "comma-separated shard node base URLs, in shard-id order (required)")
	timeout := flag.Duration("timeout", shard.DefaultRouterTimeout, "per-shard request budget within a batch")
	maxBatch := flag.Int("max-batch", shard.DefaultMaxBatch, "addresses per routed /cluster batch")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight fan-outs on shutdown")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file on shutdown")
	federateEvery := flag.Duration("federate-every", shard.DefaultFederateEvery,
		"staleness bound on the /metrics/cluster aggregator's pulled shard snapshots")
	flag.Parse()

	// Distinct processes must mint distinct trace/span IDs or merged
	// cluster traces alias; the PID salt keeps each binary's sequences in
	// a disjoint range.
	obsv.SetTraceIDSalt(uint64(os.Getpid()) << 40)

	var urls []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		fatal(fmt.Errorf("-shards is required: comma-separated shard node URLs"))
	}

	// The shard map is derived from the node count: shard i owns its
	// equal slice of the 256 /8 blocks, same as the nodes' own
	// -shard-index/-shard-count flags derive theirs.
	m := shard.NewMap(len(urls))
	for i := range m.Shards {
		m.Shards[i].Addr = urls[i]
	}
	rt, err := shard.NewRouter(shard.RouterConfig{
		Map:           m,
		Timeout:       *timeout,
		MaxBatch:      *maxBatch,
		FederateEvery: *federateEvery,
	})
	if err != nil {
		fatal(err)
	}
	for _, s := range m.Shards {
		fmt.Fprintf(os.Stderr, "clusterrouter: shard %d: blocks %d-%d -> %s\n",
			s.ID, s.FirstBlock, s.LastBlock, s.Addr)
	}

	mux := http.NewServeMux()
	rh := rt.Handler()
	mux.Handle("/cluster", rh)
	mux.Handle("/lookup", rh)
	mux.Handle("/shardmap", rh)
	mux.Handle("/healthz", rh)
	mux.Handle("/readyz", rh)
	mux.Handle("/metrics/cluster", rh)
	debug := obsv.DebugHandler()
	mux.Handle("/metrics", debug)
	mux.Handle("/metrics.json", debug)
	mux.Handle("/debug/", debug)

	// Signals are caught before the announce: once a caller has read
	// "serving on", SIGTERM drains rather than killing the process.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "clusterrouter: serving on http://%s (%d shards, map version %d)\n",
		ln.Addr(), m.NumShards(), m.Version)

	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "clusterrouter: %v, draining\n", sig)
	}
	rt.SetDraining(true) // /readyz flips 503 while the drain runs

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "clusterrouter: drain: %v\n", err)
	}
	rt.Close()
	if *metricsOut != "" {
		if err := obsv.WriteFile(*metricsOut); err != nil {
			fatal(fmt.Errorf("metrics snapshot: %w", err))
		}
		fmt.Fprintf(os.Stderr, "clusterrouter: metrics snapshot written to %s\n", *metricsOut)
	}
	fmt.Fprintln(os.Stderr, "clusterrouter: drained, bye")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "clusterrouter: %v\n", err)
	os.Exit(1)
}
