// Package websim runs the paper's trace-driven Web caching simulation
// (Section 4.1.5): one proxy cache is placed in front of every client
// cluster, the log is replayed in time order, and hit/byte-hit ratios are
// measured both server-wide (Figure 11) and per proxy (Figure 12).
package websim

import (
	"sort"

	"github.com/netaware/netcluster/internal/cache"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/netutil"
)

// Config parameterizes one simulation run.
type Config struct {
	// CacheBytes is each proxy's capacity; 0 means unbounded (the paper's
	// per-proxy experiment fixes cache size as infinite).
	CacheBytes int64
	// TTL is the freshness lifetime in seconds; the paper defaults to 1 h.
	TTL uint32
	// PCV toggles piggyback cache validation (on in the paper).
	PCV bool
	// MinURLAccesses drops resources requested fewer times than this
	// across the whole log (the paper's footnote 9 ignores resources
	// accessed by clients less than 10 times).
	MinURLAccesses int
}

// DefaultConfig mirrors the paper's setup: 1 h TTL, PCV, 10-access URL
// floor; callers sweep CacheBytes.
func DefaultConfig() Config {
	return Config{TTL: 3600, PCV: true, MinURLAccesses: 10}
}

// ProxyOutcome reports one cluster's proxy performance.
type ProxyOutcome struct {
	Prefix   netutil.Prefix
	Clients  int
	Requests int
	Bytes    int64
	Stats    cache.Stats
}

// Outcome aggregates one run.
type Outcome struct {
	// Server-wide ratios: fraction of (byte-)traffic absorbed by proxies,
	// i.e. not served by the origin.
	HitRatio     float64
	ByteHitRatio float64
	// Requests replayed (after the URL floor) and those bypassing proxies
	// because their client was unclustered.
	Requests int
	Bypassed int
	// Proxies in decreasing order of request volume.
	Proxies []ProxyOutcome
}

// Simulate replays res.Log through per-cluster proxies. Requests from
// unclustered clients go straight to the origin (no proxy fronts them) and
// count as misses in the server-wide ratios.
func Simulate(res *cluster.Result, cfg Config) Outcome {
	l := res.Log

	// Apply the minimum-access URL floor.
	var keep []bool
	if cfg.MinURLAccesses > 1 {
		counts := make([]int, len(l.Resources))
		for i := range l.Requests {
			counts[l.Requests[i].URL]++
		}
		keep = make([]bool, len(l.Resources))
		for u, c := range counts {
			keep[u] = c >= cfg.MinURLAccesses
		}
	}

	proxies := make(map[netutil.Prefix]*cache.Proxy, len(res.Clusters))
	proxyFor := func(p netutil.Prefix) *cache.Proxy {
		px := proxies[p]
		if px == nil {
			px = cache.NewProxy(cfg.CacheBytes, cfg.TTL, cfg.PCV)
			proxies[p] = px
		}
		return px
	}

	var out Outcome
	var totalHits, totalReqs int
	var totalByteHits, totalBytes int64
	for i := range l.Requests {
		r := &l.Requests[i]
		if keep != nil && !keep[r.URL] {
			continue
		}
		size := int64(l.Resources[r.URL].Size)
		totalReqs++
		totalBytes += size
		cl, ok := res.ClusterOf(r.Client)
		if !ok {
			out.Bypassed++
			continue
		}
		px := proxyFor(cl.Prefix)
		px.Tick(r.Time)
		px.Request(l.Resources, r.URL, r.Time)
	}
	out.Requests = totalReqs

	for p, px := range proxies {
		px.PublishMetrics()
		cl, _ := res.Find(p)
		clients := 0
		if cl != nil {
			clients = cl.NumClients()
		}
		out.Proxies = append(out.Proxies, ProxyOutcome{
			Prefix:   p,
			Clients:  clients,
			Requests: px.Stats.Requests,
			Bytes:    px.Stats.Bytes,
			Stats:    px.Stats,
		})
		totalHits += px.Stats.Hits
		totalByteHits += px.Stats.ByteHits
	}
	sort.Slice(out.Proxies, func(i, j int) bool {
		if out.Proxies[i].Requests != out.Proxies[j].Requests {
			return out.Proxies[i].Requests > out.Proxies[j].Requests
		}
		return netutil.ComparePrefix(out.Proxies[i].Prefix, out.Proxies[j].Prefix) < 0
	})
	if totalReqs > 0 {
		out.HitRatio = float64(totalHits) / float64(totalReqs)
	}
	if totalBytes > 0 {
		out.ByteHitRatio = float64(totalByteHits) / float64(totalBytes)
	}
	return out
}

// Sweep runs Simulate across cache sizes, returning outcomes aligned with
// sizes — the Figure 11 x-axis (the paper sweeps 100 KB to 100 MB).
func Sweep(res *cluster.Result, cfg Config, sizes []int64) []Outcome {
	out := make([]Outcome, len(sizes))
	for i, s := range sizes {
		c := cfg
		c.CacheBytes = s
		out[i] = Simulate(res, c)
	}
	return out
}
