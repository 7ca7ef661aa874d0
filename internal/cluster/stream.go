package cluster

import (
	"context"
	"io"
	"runtime"

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
	urls     urlSet
	clients  int // distinct clients tallied while accumulating
}

// NumClients returns the cluster's client population.
func (c *StreamCluster) NumClients() int { return len(c.Clients) }

// NumURLs returns how many distinct URLs the cluster accessed.
func (c *StreamCluster) NumURLs() int { return c.urls.n }

// EachURL calls fn once for each id of a URL the cluster accessed, in no
// particular order.
func (c *StreamCluster) EachURL(fn func(int32)) { c.urls.each(fn) }

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
	return clusterStream(ctx, r, c, 1, 0)
}

// ParallelOptions sizes ClusterStreamParallel. The zero value uses
// GOMAXPROCS workers.
type ParallelOptions struct {
	// Workers is how many goroutines parse and accumulate, at most
	// GOMAXPROCS; 0 or negative means GOMAXPROCS. One worker is
	// ClusterStream.
	Workers int
}

// workers is Workers capped at GOMAXPROCS: workers beyond the processors
// that can run them parse nothing in parallel and only add to the merge.
func (o ParallelOptions) workers() int {
	n := runtime.GOMAXPROCS(0)
	if o.Workers > 0 && o.Workers < n {
		return o.Workers
	}
	return n
}

// ClusterStreamParallel is ClusterStream with the parse spread over
// opts.Workers goroutines: the stream is cut into chunks of whole lines,
// each worker parses the chunks it takes into an accumulator of its own,
// and the accumulators are merged. The StreamResult, and the error of a
// stream that fails, are ClusterStream's. The Clusterer must be safe for
// concurrent use: NetworkAware is (both the tree and the compiled table
// take lock-free concurrent readers), as are Simple and Classful; a Func
// closure must synchronize any mutable state it captures.
func ClusterStreamParallel(r io.Reader, c Clusterer, opts ParallelOptions) (*StreamResult, error) {
	return ClusterStreamParallelCtx(context.Background(), r, c, opts)
}

// ClusterStreamParallelCtx is ClusterStreamParallel under a trace
// context: the "cluster.stream" span holds the "weblog.stream" parse with
// one "weblog.stream.worker" lane per worker.
func ClusterStreamParallelCtx(ctx context.Context, r io.Reader, c Clusterer, opts ParallelOptions) (*StreamResult, error) {
	return clusterStream(ctx, r, c, opts.workers(), weblog.ChunkBytes)
}

// clusterStream is the one clustering pass over a CLF stream. One worker
// feeds a single accumulator straight from the stream; more parse chunks
// of chunkBytes in parallel, each into its own accumulator, merged after.
func clusterStream(ctx context.Context, r io.Reader, c Clusterer, workers, chunkBytes int) (*StreamResult, error) {
	sctx, sp := obsv.StartTraceSpan(ctx, "cluster.stream")
	var accs []*streamAcc
	var stats weblog.StreamStats
	var remap [][]int32
	var err error
	if workers <= 1 {
		acc := newStreamAcc(c)
		accs = append(accs, acc)
		stats, err = weblog.StreamCLFCtx(sctx, r, acc.add)
	} else {
		stats, remap, err = weblog.StreamCLFChunks(sctx, r, workers, chunkBytes, func() func(weblog.StreamRecord) {
			acc := newStreamAcc(c)
			accs = append(accs, acc)
			return func(rec weblog.StreamRecord) { acc.add(rec) }
		})
	}
	sp.SetAttr("method", c.Name())
	sp.SetAttrInt("workers", int64(len(accs)))
	if err != nil {
		sp.Fail(err)
		sp.End()
		return nil, err
	}
	res := streamResult(accs, remap)
	res.Stats = stats
	streamRecords.Add(uint64(res.TotalRequests))
	sp.SetAttrInt("records", int64(res.TotalRequests))
	sp.SetAttrInt("clusters", int64(len(res.Clusters)))
	sp.End()
	return res, nil
}

// streamAcc is one worker's accumulation. byClient memoises the lookup and
// counts requests per distinct client; the Clients maps are made and
// filled from it once, after the pass, at their final size, instead of by
// one map assignment per record. Client accumulators, clusters and URL
// bitmaps are carved from fixed-size slabs: pointers stay valid and
// growth copies nothing. An unclusterable client's accumulator has no
// cluster.
type streamAcc struct {
	c        Clusterer
	res      *StreamResult
	byClient map[netutil.Addr]*clientAcc
	slab     []clientAcc
	clusters []StreamCluster
	bitmaps  bitmapSlab
}

type clientAcc struct {
	cl *StreamCluster
	n  int
}

func newStreamAcc(c Clusterer) *streamAcc {
	return &streamAcc{
		c: c,
		res: &StreamResult{
			Method:      c.Name(),
			Clusters:    make(map[netutil.Prefix]*StreamCluster),
			Unclustered: make(map[netutil.Addr]struct{}),
		},
		byClient: make(map[netutil.Addr]*clientAcc),
	}
}

// add accounts one record; it never stops the stream.
func (a *streamAcc) add(rec weblog.StreamRecord) bool {
	a.res.TotalRequests++
	client := rec.Request.Client
	acc := a.byClient[client]
	if acc == nil {
		if len(a.slab) == cap(a.slab) {
			a.slab = make([]clientAcc, 0, 256)
		}
		a.slab = append(a.slab, clientAcc{})
		acc = &a.slab[len(a.slab)-1]
		a.byClient[client] = acc
		if p, ok := a.c.Cluster(client); !ok {
			a.res.Unclustered[client] = struct{}{}
		} else {
			acc.cl = a.cluster(p)
			acc.cl.clients++
		}
	}
	cl := acc.cl
	if cl == nil {
		return true
	}
	acc.n++
	cl.Requests++
	cl.Bytes += int64(rec.Size)
	cl.urls.add(rec.Request.URL, &a.bitmaps)
	return true
}

// cluster returns the accumulation's cluster for p, creating it if need
// be.
func (a *streamAcc) cluster(p netutil.Prefix) *StreamCluster {
	cl := a.res.Clusters[p]
	if cl == nil {
		if len(a.clusters) == cap(a.clusters) {
			a.clusters = make([]StreamCluster, 0, 256)
		}
		a.clusters = append(a.clusters, StreamCluster{Prefix: p})
		cl = &a.clusters[len(a.clusters)-1]
		a.res.Clusters[p] = cl
	}
	return cl
}

// streamResult folds every worker's accumulation into the first one's,
// whose URL ids worker w's map to through remap[w], and then fills the
// Clients maps. A client several workers saw sums its counts, so the
// summed client tallies size its map for the worst case.
func streamResult(accs []*streamAcc, remap [][]int32) *StreamResult {
	first := accs[0]
	res := first.res
	for w, a := range accs[1:] {
		ids := remap[w+1]
		res.TotalRequests += a.res.TotalRequests
		for p, cl := range a.res.Clusters {
			dst := first.cluster(p)
			dst.Requests += cl.Requests
			dst.Bytes += cl.Bytes
			dst.clients += cl.clients
			dst.urls.addRemapped(&cl.urls, ids, &first.bitmaps)
		}
		for client := range a.res.Unclustered {
			res.Unclustered[client] = struct{}{}
		}
	}
	for _, cl := range res.Clusters {
		cl.Clients = make(map[netutil.Addr]int, cl.clients)
	}
	for _, a := range accs {
		for client, acc := range a.byClient {
			if acc.cl != nil {
				res.Clusters[acc.cl.Prefix].Clients[client] += acc.n
			}
		}
	}
	return res
}
