// Package cache implements the proxy cache used by the paper's Web caching
// simulation (Section 4.1.5): an LRU-evicted store with fixed-TTL
// expiration and Piggyback Cache Validation (PCV, Krishnamurthy & Wills
// 1997). A cached resource is considered stale TTL seconds after it was
// validated; when the proxy contacts the server for any reason, it
// piggybacks validation checks for resources whose TTL has expired. A
// stale resource accessed before a piggybacked validation got to it incurs
// a synchronous If-Modified-Since GET.
package cache

import (
	"container/list"
	"context"
	"fmt"

	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/weblog"
)

// Cache observability: Proxy keeps its per-instance Stats struct (a
// simulation can run thousands of per-cluster proxies, each reporting its
// own ratios) and PublishMetrics folds a finished proxy's totals into the
// process-wide registry in one batch — no atomics inside the simulation
// loop.
var (
	cacheRequests    = obsv.C("cache.requests")
	cacheHits        = obsv.C("cache.hits")
	cacheBytes       = obsv.C("cache.bytes")
	cacheByteHits    = obsv.C("cache.byte_hits")
	cacheFullFetches = obsv.C("cache.full_fetches")
	cacheValidations = obsv.C("cache.validations")
	cacheSyncValid   = obsv.C("cache.validations.sync")
	cacheStaleServes = obsv.C("cache.stale_serves")
	cacheEvictions   = obsv.C("cache.evictions")
)

// PublishMetrics adds the proxy's accumulated Stats to the process-wide
// obsv registry. Call it once per proxy when a simulation (or serving
// window) completes; calling it repeatedly double-counts.
func (p *Proxy) PublishMetrics() {
	s := p.Stats
	cacheRequests.Add(uint64(s.Requests))
	cacheHits.Add(uint64(s.Hits))
	cacheBytes.Add(uint64(s.Bytes))
	cacheByteHits.Add(uint64(s.ByteHits))
	cacheFullFetches.Add(uint64(s.FullFetches))
	cacheValidations.Add(uint64(s.Validations))
	cacheSyncValid.Add(uint64(s.SyncValidations))
	cacheStaleServes.Add(uint64(s.StaleServes))
	cacheEvictions.Add(uint64(s.Evictions))
}

// Stats aggregates the simulation metrics at one proxy. Hit accounting
// follows the paper: a request counts as a hit when the proxy serves the
// body without transferring it from the server again (including
// 304-validated staleness checks), because the paper's server-side ratios
// measure "requests served by local proxies".
type Stats struct {
	Requests int
	Hits     int
	Bytes    int64 // total bytes requested by clients
	ByteHits int64 // bytes served from cache

	FullFetches     int // bodies transferred from the server
	Validations     int // If-Modified-Since checks, sync + piggybacked
	SyncValidations int
	StaleServes     int // hits that needed a 304 revalidation round first
	ServerContacts  int // messages to the server (fetches + sync validations)
	Evictions       int
}

// HitRatio returns hits/requests, 0 on an idle proxy.
func (s Stats) HitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// ByteHitRatio returns byte hits over bytes, 0 on an idle proxy.
func (s Stats) ByteHitRatio() float64 {
	if s.Bytes == 0 {
		return 0
	}
	return float64(s.ByteHits) / float64(s.Bytes)
}

type entry struct {
	url         int32
	size        int32
	validatedAt uint32 // last time the copy was known fresh
	version     uint32 // Last-Modified of the cached copy
}

// Proxy is one proxy cache in front of a client cluster.
type Proxy struct {
	// Capacity bounds the cache size in bytes; 0 or negative means
	// unbounded (the paper's per-proxy evaluation uses infinite caches).
	Capacity int64
	// TTL is the freshness lifetime in seconds (the paper's default: 1h).
	TTL uint32
	// PCV enables piggybacked validation; disabled, every stale access
	// validates synchronously (the plain-TTL ablation baseline).
	PCV bool
	// PiggybackLimit caps how many validations ride along on one server
	// contact; the PCV paper batches rather than flooding.
	PiggybackLimit int

	Stats Stats

	used  int64
	lru   *list.List // front = most recent
	items map[int32]*list.Element
	// expired holds the stale entries awaiting piggybacked validation,
	// each with the ticket it was queued under; queue lists the tickets
	// in queueing order. A ticket whose entry left expired, or was queued
	// again under a newer one, is skipped when it reaches the front.
	expired map[int32]uint64
	queue   []ticket
	tickets uint64
	seq     uint64 // request counter driving trace sampling
}

type ticket struct {
	url int32
	n   uint64
}

// traceSampleEvery sets the 1-in-N trace sampling rate for simulated
// requests. The simulation loop runs millions of requests per proxy, so
// unconditional per-request spans would swamp both the flight recorder
// and the overhead budget; a sampled sliver keeps representative
// cache.request spans in the ring at negligible cost. Plain (non-atomic)
// counting suffices: a Proxy is single-goroutine by contract.
const traceSampleEvery = 1024

// NewProxy returns a proxy with the paper's defaults for unset fields:
// TTL 1 hour, PCV on, piggyback batches of 10.
func NewProxy(capacity int64, ttl uint32, pcv bool) *Proxy {
	if ttl == 0 {
		ttl = 3600
	}
	return &Proxy{
		Capacity:       capacity,
		TTL:            ttl,
		PCV:            pcv,
		PiggybackLimit: 10,
		lru:            list.New(),
		items:          make(map[int32]*list.Element),
		expired:        make(map[int32]uint64),
	}
}

// Request serves one client request for res (indexed by url) at time t
// (seconds since log start) and updates the statistics. One request in
// traceSampleEvery records a "cache.request" span (url, outcome) into
// the flight recorder.
func (p *Proxy) Request(resources []weblog.Resource, url int32, t uint32) {
	p.seq++
	if p.seq%traceSampleEvery != 1 {
		p.request(resources, url, t)
		return
	}
	_, sp := obsv.StartTraceSpan(context.Background(), "cache.request")
	status := p.request(resources, url, t)
	sp.SetAttrInt("url", int64(url))
	sp.SetAttr("status", status)
	sp.End()
}

// request is the un-traced serving path; it returns the outcome label
// ("miss", "hit", "refetch", "stale-hit") for sampled trace spans.
func (p *Proxy) request(resources []weblog.Resource, url int32, t uint32) string {
	if int(url) >= len(resources) {
		panic(fmt.Sprintf("cache: url %d outside resource table of %d", url, len(resources)))
	}
	res := resources[url]
	p.Stats.Requests++
	p.Stats.Bytes += int64(res.Size)

	el, ok := p.items[url]
	if !ok {
		p.fetch(resources, url, t)
		return "miss"
	}
	e := el.Value.(*entry)
	p.lru.MoveToFront(el)
	if t < e.validatedAt+p.TTL {
		// Fresh: pure cache hit.
		p.Stats.Hits++
		p.Stats.ByteHits += int64(res.Size)
		return "hit"
	}
	// Stale: synchronous If-Modified-Since.
	p.Stats.Validations++
	p.Stats.SyncValidations++
	p.contactServer(resources, t)
	if res.LastModified(t) != e.version {
		// Modified: full body transfer; not a hit.
		e.version = res.LastModified(t)
		e.validatedAt = t
		p.resize(el, res.Size)
		p.Stats.FullFetches++
		delete(p.expired, url)
		return "refetch"
	}
	// 304 Not Modified: body served from cache.
	e.validatedAt = t
	delete(p.expired, url)
	p.Stats.Hits++
	p.Stats.StaleServes++
	p.Stats.ByteHits += int64(res.Size)
	return "stale-hit"
}

// fetch brings a missing resource into the cache.
func (p *Proxy) fetch(resources []weblog.Resource, url int32, t uint32) {
	res := resources[url]
	p.Stats.FullFetches++
	p.contactServer(resources, t)
	e := &entry{url: url, size: res.Size, validatedAt: t, version: res.LastModified(t)}
	el := p.lru.PushFront(e)
	p.items[url] = el
	p.used += int64(res.Size)
	p.evict()
}

// contactServer accounts one message to the origin and, when PCV is on,
// piggybacks validations for expired entries, oldest queued first.
func (p *Proxy) contactServer(resources []weblog.Resource, t uint32) {
	p.Stats.ServerContacts++
	if !p.PCV {
		return
	}
	n := 0
	for len(p.queue) > 0 && n < p.PiggybackLimit {
		tk := p.queue[0]
		p.queue = p.queue[1:]
		url := tk.url
		if p.expired[url] != tk.n {
			continue // validated, refetched or evicted since, or queued again
		}
		el, ok := p.items[url]
		if !ok {
			delete(p.expired, url)
			continue
		}
		e := el.Value.(*entry)
		res := resources[url]
		p.Stats.Validations++
		if res.LastModified(t) != e.version {
			// The copy is out of date: drop it so the next access fetches
			// a fresh body instead of serving stale content.
			p.remove(el)
		} else {
			e.validatedAt = t
		}
		delete(p.expired, url)
		n++
	}
}

// Tick advances proxy-local time bookkeeping: entries whose TTL has lapsed
// by t are queued for piggybacked validation. Callers invoke it with each
// request's timestamp (time only moves via the trace).
func (p *Proxy) Tick(t uint32) {
	if !p.PCV {
		return
	}
	// Scan from the back of the LRU (coldest first) — cheap because the
	// queue is drained by piggybacking; a full scan per tick would be
	// quadratic, so only the tail is probed.
	const probe = 8
	el := p.lru.Back()
	for i := 0; i < probe && el != nil; i++ {
		e := el.Value.(*entry)
		if t >= e.validatedAt+p.TTL {
			if _, queued := p.expired[e.url]; !queued {
				p.tickets++
				p.expired[e.url] = p.tickets
				p.queue = append(p.queue, ticket{e.url, p.tickets})
			}
		}
		el = el.Prev()
	}
}

// resize adjusts accounting when a refreshed body changed size.
func (p *Proxy) resize(el *list.Element, newSize int32) {
	e := el.Value.(*entry)
	p.used += int64(newSize) - int64(e.size)
	e.size = newSize
	p.evict()
}

// evict drops least-recently-used entries until the cache fits.
func (p *Proxy) evict() {
	if p.Capacity <= 0 {
		return
	}
	for p.used > p.Capacity {
		el := p.lru.Back()
		if el == nil {
			return
		}
		p.remove(el)
		p.Stats.Evictions++
	}
}

func (p *Proxy) remove(el *list.Element) {
	e := el.Value.(*entry)
	p.lru.Remove(el)
	delete(p.items, e.url)
	delete(p.expired, e.url)
	p.used -= int64(e.size)
}
