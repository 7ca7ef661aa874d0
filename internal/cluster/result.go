package cluster

import (
	"context"
	"sort"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/weblog"
)

// Cluster is one identified client cluster with the metrics the paper's
// figures plot: client population, request volume, unique URLs touched,
// and bytes fetched.
type Cluster struct {
	Prefix   netutil.Prefix
	Clients  map[netutil.Addr]int // requests issued per client
	Requests int
	Bytes    int64
	urls     urlSet
}

// NumClients returns the cluster's client population.
func (c *Cluster) NumClients() int { return len(c.Clients) }

// NumURLs returns how many distinct URLs the cluster accessed.
func (c *Cluster) NumURLs() int { return c.urls.n }

// EachURL calls fn once for each id of a URL accessed from within the
// cluster (an index into the log's Resources), in no particular order.
func (c *Cluster) EachURL(fn func(int32)) { c.urls.each(fn) }

// Result is the outcome of clustering one log with one method.
type Result struct {
	Method        string
	Log           *weblog.Log
	Clusters      []*Cluster
	Unclustered   []netutil.Addr // distinct clients no prefix covered
	TotalRequests int

	byPrefix map[netutil.Prefix]*Cluster
	byClient map[netutil.Addr]*Cluster
}

// ClusterLog groups every client in l according to c. Requests from the
// unspecified address 0.0.0.0 are skipped (the paper's footnote 6);
// clients the method cannot cluster are collected in Unclustered and their
// requests excluded from cluster metrics, mirroring the paper's coverage
// accounting.
func ClusterLog(l *weblog.Log, c Clusterer) *Result {
	return ClusterLogCtx(context.Background(), l, c)
}

// ClusterLogCtx is ClusterLog under a trace context: the run records a
// "cluster.log" span (method, record and cluster counts as attributes)
// into the flight recorder, parented to whatever span ctx carries.
func ClusterLogCtx(ctx context.Context, l *weblog.Log, c Clusterer) *Result {
	_, sp := obsv.StartTraceSpan(ctx, "cluster.log")
	res := &Result{
		Method:   c.Name(),
		Log:      l,
		byPrefix: make(map[netutil.Prefix]*Cluster),
		byClient: make(map[netutil.Addr]*Cluster),
	}
	unclustered := make(map[netutil.Addr]struct{})
	var bitmaps bitmapSlab
	for i := range l.Requests {
		r := &l.Requests[i]
		if r.Client.IsUnspecified() {
			continue
		}
		res.TotalRequests++
		cl, seen := res.byClient[r.Client]
		if !seen {
			if _, bad := unclustered[r.Client]; bad {
				continue
			}
			p, ok := c.Cluster(r.Client)
			if !ok {
				unclustered[r.Client] = struct{}{}
				res.Unclustered = append(res.Unclustered, r.Client)
				continue
			}
			cl = res.byPrefix[p]
			if cl == nil {
				cl = &Cluster{Prefix: p, Clients: make(map[netutil.Addr]int)}
				res.byPrefix[p] = cl
				res.Clusters = append(res.Clusters, cl)
			}
			res.byClient[r.Client] = cl
		} else if cl == nil {
			continue
		}
		cl.Clients[r.Client]++
		cl.Requests++
		cl.Bytes += int64(l.Resources[r.URL].Size)
		cl.urls.add(r.URL, &bitmaps)
	}
	// Canonical order: by prefix, so results are deterministic regardless
	// of log ordering.
	sort.Slice(res.Clusters, func(i, j int) bool {
		return netutil.ComparePrefix(res.Clusters[i].Prefix, res.Clusters[j].Prefix) < 0
	})
	sp.SetAttr("method", res.Method)
	sp.SetAttrInt("records", int64(res.TotalRequests))
	sp.SetAttrInt("clusters", int64(len(res.Clusters)))
	sp.End()
	// Flush run totals once; nothing is counted per record.
	logRecords.Add(uint64(res.TotalRequests))
	logClustered.Add(uint64(len(res.byClient)))
	logUnclustered.Add(uint64(len(res.Unclustered)))
	return res
}

// Find returns the cluster identified by prefix p, if any.
func (r *Result) Find(p netutil.Prefix) (*Cluster, bool) {
	c, ok := r.byPrefix[p]
	return c, ok
}

// ClusterOf returns the cluster containing client addr, if it was
// clustered.
func (r *Result) ClusterOf(addr netutil.Addr) (*Cluster, bool) {
	c, ok := r.byClient[addr]
	return c, ok
}

// NumClients returns the total number of distinct clustered clients.
func (r *Result) NumClients() int { return len(r.byClient) }

// Coverage returns the fraction of distinct clients that were clusterable
// — the paper's headline 99.9% metric.
func (r *Result) Coverage() float64 {
	total := len(r.byClient) + len(r.Unclustered)
	if total == 0 {
		return 0
	}
	return float64(len(r.byClient)) / float64(total)
}

// ByClientsDesc returns the clusters sorted by decreasing client count
// (the x-axis ordering of Figures 4 and 6(a,b)). Ties break by request
// count then prefix so the order is total and stable.
func (r *Result) ByClientsDesc() []*Cluster {
	out := append([]*Cluster(nil), r.Clusters...)
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i].NumClients(), out[j].NumClients(); a != b {
			return a > b
		}
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		return netutil.ComparePrefix(out[i].Prefix, out[j].Prefix) < 0
	})
	return out
}

// ByRequestsDesc returns the clusters sorted by decreasing request count
// (the ordering of Figures 5, 6(c,d) and the thresholding step).
func (r *Result) ByRequestsDesc() []*Cluster {
	out := append([]*Cluster(nil), r.Clusters...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		if a, b := out[i].NumClients(), out[j].NumClients(); a != b {
			return a > b
		}
		return netutil.ComparePrefix(out[i].Prefix, out[j].Prefix) < 0
	})
	return out
}

// Thresholding is the outcome of the Section 4.1.3 busy-cluster cut.
type Thresholding struct {
	Busy      []*Cluster // clusters covering coverFrac of requests
	LessBusy  []*Cluster
	Threshold int // requests issued by the smallest busy cluster
}

// ThresholdBusy retains the busiest clusters whose requests sum to at
// least coverFrac of the clustered total (the paper uses 0.70), scanning
// in decreasing request order.
func (r *Result) ThresholdBusy(coverFrac float64) Thresholding {
	ordered := r.ByRequestsDesc()
	clusteredTotal := 0
	for _, c := range ordered {
		clusteredTotal += c.Requests
	}
	target := int(coverFrac * float64(clusteredTotal))
	var th Thresholding
	acc := 0
	for i, c := range ordered {
		if acc >= target && i > 0 {
			th.LessBusy = ordered[i:]
			break
		}
		acc += c.Requests
		th.Busy = ordered[:i+1]
		th.Threshold = c.Requests
	}
	return th
}

// ClientCounts, RequestCounts and URLCounts extract aligned
// metric slices from an externally chosen cluster ordering; the figures
// plot several metrics against one shared x ordering.
func ClientCounts(cs []*Cluster) []int {
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.NumClients()
	}
	return out
}

// RequestCounts extracts per-cluster request totals.
func RequestCounts(cs []*Cluster) []int {
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.Requests
	}
	return out
}

// URLCounts extracts per-cluster unique-URL totals.
func URLCounts(cs []*Cluster) []int {
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.NumURLs()
	}
	return out
}
