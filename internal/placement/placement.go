// Package placement implements the paper's Section 4.1.4 proxy placement
// strategies:
//
//   - strategy 1 (the one the paper evaluates): assign one or more proxies
//     to each busy client cluster, scaled by a load metric — number of
//     clients, requests, URLs accessed, or bytes fetched;
//   - strategy 2 (described as "more practical, [but] complicated"): place
//     a proxy in front of each cluster and group the proxies into proxy
//     clusters by the origin AS of the cluster's identifying prefix, so
//     proxies under one administration can cooperate.
package placement

import (
	"fmt"
	"sort"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/cluster"
)

// Metric selects the load measure that scales proxy counts.
type Metric int

const (
	// ByClients scales proxies with cluster population.
	ByClients Metric = iota
	// ByRequests scales with request volume.
	ByRequests
	// ByURLs scales with the number of distinct URLs accessed.
	ByURLs
	// ByBytes scales with bytes fetched from the server.
	ByBytes
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case ByClients:
		return "clients"
	case ByRequests:
		return "requests"
	case ByURLs:
		return "urls"
	case ByBytes:
		return "bytes"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

func (m Metric) value(c *cluster.Cluster) int64 {
	switch m {
	case ByClients:
		return int64(c.NumClients())
	case ByRequests:
		return int64(c.Requests)
	case ByURLs:
		return int64(c.NumURLs())
	case ByBytes:
		return c.Bytes
	default:
		panic(fmt.Sprintf("placement: unknown metric %d", int(m)))
	}
}

// Assignment is one cluster's proxy allocation.
type Assignment struct {
	Cluster *cluster.Cluster
	// Proxies is how many proxies front the cluster (≥ 1); they form a
	// cooperating proxy cluster in the paper's terms.
	Proxies int
	Load    int64 // the metric value that sized the allocation
}

// Plan is the outcome of strategy 1.
type Plan struct {
	Metric       Metric
	PerProxy     int64 // load one proxy absorbs
	Assignments  []Assignment
	TotalProxies int
}

// PerCluster builds a strategy-1 plan: every busy cluster (those covering
// coverFrac of requests, the paper uses 0.70) receives
// ceil(load/perProxy) proxies, at least one. perProxy must be positive.
func PerCluster(res *cluster.Result, coverFrac float64, metric Metric, perProxy int64) (Plan, error) {
	if perProxy <= 0 {
		return Plan{}, fmt.Errorf("placement: per-proxy capacity must be positive, got %d", perProxy)
	}
	th := res.ThresholdBusy(coverFrac)
	plan := Plan{Metric: metric, PerProxy: perProxy}
	for _, c := range th.Busy {
		load := metric.value(c)
		n := int((load + perProxy - 1) / perProxy)
		if n < 1 {
			n = 1
		}
		plan.Assignments = append(plan.Assignments, Assignment{Cluster: c, Proxies: n, Load: load})
		plan.TotalProxies += n
	}
	sort.Slice(plan.Assignments, func(i, j int) bool {
		if plan.Assignments[i].Load != plan.Assignments[j].Load {
			return plan.Assignments[i].Load > plan.Assignments[j].Load
		}
		return plan.Assignments[i].Cluster.Requests > plan.Assignments[j].Cluster.Requests
	})
	return plan, nil
}

// ProxyCluster is a strategy-2 group: proxies whose client clusters'
// prefixes originate in the same AS (and, when location data is supplied,
// the same country). Proxies in one group belong to one administrative
// domain and can cooperate (shared cache hierarchy, shared provisioning).
type ProxyCluster struct {
	OriginAS uint32 // 0 groups the clusters whose origin is unknown
	Country  string // set by GroupByASAndLocation; empty otherwise
	Members  []Assignment
	Proxies  int
	Requests int
}

// GroupByASAndLocation additionally splits groups by country, using a
// whois-style lookup from AS number to country code (unknown ASes get
// country ""). This is the full form of the paper's strategy 2: "all
// proxies belonging to the same AS and located geographically nearby will
// be grouped together".
func GroupByASAndLocation(plan Plan, table *bgp.Merged, countryOf func(asn uint32) string) []ProxyCluster {
	if countryOf == nil {
		countryOf = func(uint32) string { return "" }
	}
	return groupBy(plan, table, countryOf)
}

func groupBy(plan Plan, table *bgp.Merged, countryOf func(uint32) string) []ProxyCluster {
	type key struct {
		asn     uint32
		country string
	}
	groups := map[key]*ProxyCluster{}
	for _, a := range plan.Assignments {
		var origin uint32
		if prov, ok := table.Provenance(a.Cluster.Prefix); ok {
			origin = prov.OriginAS
		}
		k := key{asn: origin}
		if countryOf != nil {
			k.country = countryOf(origin)
		}
		g := groups[k]
		if g == nil {
			g = &ProxyCluster{OriginAS: origin, Country: k.country}
			groups[k] = g
		}
		g.Members = append(g.Members, a)
		g.Proxies += a.Proxies
		g.Requests += a.Cluster.Requests
	}
	out := make([]ProxyCluster, 0, len(groups))
	for _, g := range groups {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		if out[i].OriginAS != out[j].OriginAS {
			return out[i].OriginAS < out[j].OriginAS
		}
		return out[i].Country < out[j].Country
	})
	return out
}
