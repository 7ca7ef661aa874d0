package shard

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"github.com/netaware/netcluster/internal/obsv"
)

var (
	nodeBatches = obsv.C("shard.node.batches")
	nodeAddrs   = obsv.C("shard.node.addrs")

	nodeBatchSpan  = obsv.RootSpan("node.batch")
	nodeTableSpan  = obsv.ChildSpan("node.table")
	nodeLookupSpan = obsv.RootSpan("node.lookup")
)

// NodeServer serves one shard's slice of the clustering service over
// the clusterd wire format: GET /lookup, POST /cluster and the batch
// stream (the BatchHandler clusterd mounts too), GET /healthz. It is the
// minimal single-table server the harness and the router tests stand up
// in-process; the production equivalent is a full clusterd running with
// -feed and -shard-index.
type NodeServer struct {
	Table    TableSource
	MaxBatch int // 0 = DefaultMaxBatch
	ShardID  int // annotates this node's trace spans with its shard index

	once  sync.Once
	batch *BatchHandler
}

func (n *NodeServer) batchHandler() *BatchHandler {
	n.once.Do(func() {
		lim := Limits{MaxBatch: n.MaxBatch, MaxBody: DefaultMaxBody}
		if lim.MaxBatch <= 0 {
			lim.MaxBatch = DefaultMaxBatch
		}
		n.batch = &BatchHandler{
			Table:     n.Table,
			BatchSpan: nodeBatchSpan,
			TableSpan: nodeTableSpan,
			SpanAttrs: []obsv.Attr{{Key: "shard", Value: strconv.Itoa(n.ShardID)}},
			Batches:   nodeBatches,
			Addrs:     nodeAddrs,
			Limits:    func() Limits { return lim },
		}
	})
	return n.batch
}

// Handler returns the node's mux. /metrics.json serves the process
// registry snapshot — what a router-side Aggregator federates.
func (n *NodeServer) Handler() http.Handler {
	batch := n.batchHandler()
	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", n.handleLookup)
	mux.Handle("/cluster", batch)
	mux.HandleFunc(StreamPath, batch.ServeStream)
	mux.HandleFunc("/healthz", n.handleHealthz)
	mux.Handle(MetricsSnapshotPath, obsv.SnapshotHandler())
	return mux
}

// Shutdown ends the node's batch streams (BatchHandler.Shutdown), which
// the http.Server running Handler cannot see. Call it wherever that
// server is shut down or closed.
func (n *NodeServer) Shutdown(ctx context.Context) error {
	return n.batchHandler().Shutdown(ctx)
}

func (n *NodeServer) handleLookup(w http.ResponseWriter, r *http.Request) {
	_, span := nodeLookupSpan.Start(obsv.HTTPExtract(r.Context(), r.Header))
	span.SetAttrInt("shard", int64(n.ShardID))
	defer span.End()
	addr, err := LookupAddr(w, r)
	if err != nil {
		span.Fail(err)
		return
	}
	gen := n.Table.Generation()
	m, _ := n.Table.Lookup(addr)
	WriteLookup(w, addr, m, gen)
}

func (n *NodeServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintf(w, "ok gen=%d\n", n.Table.Generation())
}
