package cluster

import (
	"context"
	"io"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/weblog"
)

// StreamCluster is one cluster accumulated from a single pass over a CLF
// stream: the same metrics as Cluster, without retaining requests.
type StreamCluster struct {
	Prefix   netutil.Prefix
	Clients  map[netutil.Addr]int
	Requests int
	Bytes    int64
	urls     map[int32]struct{}
}

// NumClients returns the cluster's client population.
func (c *StreamCluster) NumClients() int { return len(c.Clients) }

// NumURLs returns how many distinct URLs the cluster accessed.
func (c *StreamCluster) NumURLs() int { return len(c.urls) }

// StreamResult is the single-pass analogue of Result for logs that are
// parsed incrementally rather than loaded.
type StreamResult struct {
	Method        string
	Clusters      map[netutil.Prefix]*StreamCluster
	Unclustered   map[netutil.Addr]struct{}
	TotalRequests int
	Stats         weblog.StreamStats
}

// Coverage returns the fraction of distinct clients that were clusterable.
func (r *StreamResult) Coverage() float64 {
	clustered := 0
	for _, c := range r.Clusters {
		clustered += len(c.Clients)
	}
	total := clustered + len(r.Unclustered)
	if total == 0 {
		return 0
	}
	return float64(clustered) / float64(total)
}

// ClusterStream clusters a Common Log Format stream in one pass and
// constant memory (modulo cluster and intern table sizes): the paper's
// real-time use case, "application of cluster identifying techniques to
// very recent server log data (within the last few minutes)" without
// buffering the log. Semantics match ClusterLog: 0.0.0.0 is skipped by the
// parser, unclusterable clients are tracked and their requests excluded
// from cluster metrics.
func ClusterStream(r io.Reader, c Clusterer) (*StreamResult, error) {
	return ClusterStreamCtx(context.Background(), r, c)
}

// ClusterStreamCtx is ClusterStream under a trace context: the pass
// records a "cluster.stream" span with the parse work ("weblog.stream")
// nested underneath it.
func ClusterStreamCtx(ctx context.Context, r io.Reader, c Clusterer) (*StreamResult, error) {
	sctx, sp := obsv.StartTraceSpan(ctx, "cluster.stream")
	res := &StreamResult{
		Method:      c.Name(),
		Clusters:    make(map[netutil.Prefix]*StreamCluster),
		Unclustered: make(map[netutil.Addr]struct{}),
	}
	// byClient memoises the lookup and counts requests per distinct client;
	// the Clients maps are filled from it once, after the pass, instead of
	// by one map assignment per record. Accumulators are carved from
	// fixed-size chunks: pointers stay valid and growth copies nothing. An
	// unclusterable client's accumulator has no cluster.
	type clientAcc struct {
		cl *StreamCluster
		n  int
	}
	byClient := make(map[netutil.Addr]*clientAcc)
	var chunk []clientAcc
	stats, err := weblog.StreamCLFCtx(sctx, r, func(rec weblog.StreamRecord) bool {
		res.TotalRequests++
		client := rec.Request.Client
		acc := byClient[client]
		if acc == nil {
			if len(chunk) == cap(chunk) {
				chunk = make([]clientAcc, 0, 256)
			}
			chunk = append(chunk, clientAcc{})
			acc = &chunk[len(chunk)-1]
			byClient[client] = acc
			if p, ok := c.Cluster(client); !ok {
				res.Unclustered[client] = struct{}{}
			} else if acc.cl = res.Clusters[p]; acc.cl == nil {
				acc.cl = &StreamCluster{
					Prefix:  p,
					Clients: make(map[netutil.Addr]int),
					urls:    make(map[int32]struct{}),
				}
				res.Clusters[p] = acc.cl
			}
		}
		cl := acc.cl
		if cl == nil {
			return true
		}
		acc.n++
		cl.Requests++
		cl.Bytes += int64(rec.Size)
		cl.urls[rec.Request.URL] = struct{}{}
		return true
	})
	res.Stats = stats
	streamRecords.Add(uint64(res.TotalRequests))
	sp.SetAttr("method", res.Method)
	sp.SetAttrInt("records", int64(res.TotalRequests))
	sp.SetAttrInt("clusters", int64(len(res.Clusters)))
	if err != nil {
		sp.Fail(err)
		sp.End()
		return nil, err
	}
	for client, acc := range byClient {
		if acc.cl != nil {
			acc.cl.Clients[client] = acc.n
		}
	}
	sp.End()
	return res, nil
}
