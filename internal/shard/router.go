package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
)

var (
	routerBatches   = obsv.C("shard.router.batches")
	routerAddrs     = obsv.C("shard.router.addrs")
	routerShardErrs = obsv.C("shard.router.shard_errors")
	routerDegraded  = obsv.C("shard.router.degraded_batches")
	routerFanoutNS  = obsv.H("shard.router.fanout.ns")
)

// DefaultRouterTimeout bounds one shard's portion of a routed batch.
const DefaultRouterTimeout = 5 * time.Second

// shardIdleConns is how many idle keep-alive connections the router's
// own transport holds per shard. Every in-flight batch occupies one
// connection to each shard it touches, and net/http's default of 2 makes
// the third concurrent batch dial and tear down a connection per shard
// per request.
const shardIdleConns = 64

// RouterConfig configures a Router.
type RouterConfig struct {
	Map      *Map          // validated shard map with Addr filled in
	Client   *http.Client  // nil = a transport keeping shardIdleConns per shard
	Timeout  time.Duration // per-shard request budget; 0 = DefaultRouterTimeout
	MaxBatch int           // addresses per routed batch; 0 = DefaultMaxBatch

	// FederateEvery bounds how stale the metrics aggregator behind
	// /metrics/cluster and /readyz may get before a request triggers a
	// fresh pull of the shards' snapshots; 0 = DefaultFederateEvery.
	FederateEvery time.Duration
}

// Router fans batch clustering requests out across the shard map and
// merges the answers back into input order. Failure is partial by
// design: a dead shard costs only its own rows, which come back with an
// Error annotation, and the batch as a whole reports the outage in the
// Degradation map instead of failing. That inverts the single-node
// contract — where any error failed the whole batch — because in a
// cluster the common failure is one node, not all of them.
type Router struct {
	cfg      RouterConfig
	client   *http.Client // every shard-bound request: fan-out, health probes, federation
	agg      *Aggregator
	stats    []shardStat
	draining atomic.Bool
}

// shardStat is one shard's router-side SLO accounting: its slice of
// every fan-out timed into a histogram, requests/errors counted, and
// the running error rate as a basis-point gauge — the per-shard view
// that tells a flapping node from a slow one.
type shardStat struct {
	ns       *obsv.Histogram
	requests *obsv.Counter
	errors   *obsv.Counter
	errorBP  *obsv.Gauge // errors per 10,000 requests
}

func (st *shardStat) record(d time.Duration, failed bool) {
	st.ns.Observe(d.Nanoseconds())
	n := st.requests.Add(1)
	e := st.errors.Value()
	if failed {
		e = st.errors.Add(1)
	}
	st.errorBP.Set(int64(e * 10000 / n))
}

// NewRouter validates the map and returns a router over it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("shard router: nil map")
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	for _, s := range cfg.Map.Shards {
		if s.Addr == "" {
			return nil, fmt.Errorf("shard router: shard %d has no addr", s.ID)
		}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultRouterTimeout
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	// The client is built once; its Timeout is the per-shard budget.
	client := &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		DialContext:         (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConnsPerHost: shardIdleConns,
		IdleConnTimeout:     90 * time.Second,
	}}
	if cfg.Client != nil {
		c := *cfg.Client
		client = &c
	}
	client.Timeout = cfg.Timeout
	rt := &Router{cfg: cfg, client: client, stats: make([]shardStat, len(cfg.Map.Shards))}
	for i := range rt.stats {
		prefix := "shard.router.s" + strconv.Itoa(i) + "."
		rt.stats[i] = shardStat{
			ns:       obsv.H(prefix + "ns"),
			requests: obsv.C(prefix + "requests"),
			errors:   obsv.C(prefix + "errors"),
			errorBP:  obsv.G(prefix + "error_bp"),
		}
	}
	agg, err := NewAggregator(AggregatorConfig{
		Members: func() []Member {
			members := make([]Member, len(cfg.Map.Shards))
			for i, s := range cfg.Map.Shards {
				members[i] = Member{Label: strconv.Itoa(s.ID), Base: s.Addr}
			}
			return members
		},
		Client:  client,
		Timeout: cfg.Timeout,
		MaxAge:  cfg.FederateEvery,
	})
	if err != nil {
		return nil, err
	}
	rt.agg = agg
	return rt, nil
}

// Aggregator returns the router's metrics federation point (the engine
// behind /metrics/cluster and /readyz), for embedders that want to wire
// its FederatedSnapshot into a sink exporter.
func (rt *Router) Aggregator() *Aggregator { return rt.agg }

// SetDraining flips the router's readiness: a draining router answers
// /readyz 503 so load balancers stop sending new work, while in-flight
// and even new batches still succeed during the drain window.
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

// Map returns the router's shard map.
func (rt *Router) Map() *Map { return rt.cfg.Map }

// Handler returns the router's mux: POST /cluster (fan-out batch),
// GET /lookup (single-address proxy), GET /shardmap (the live map),
// GET /healthz (fan-out probe), GET /readyz (readiness: draining state,
// live-shard count and aggregator staleness), GET /metrics/cluster (the
// federated cluster metrics page).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster", rt.handleBatch)
	mux.HandleFunc("/lookup", rt.handleLookup)
	mux.HandleFunc("/shardmap", rt.handleShardMap)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/readyz", rt.handleReadyz)
	mux.Handle("/metrics/cluster", rt.agg.Handler())
	return mux
}

// Batch routes one probe batch with no inbound context: a fresh trace
// root. Kept for compatibility; request paths should call BatchCtx so
// the fan-out parents into the caller's trace.
func (rt *Router) Batch(addrs []netutil.Addr) *RouterBatchResponse {
	return rt.BatchCtx(context.Background(), addrs)
}

// BatchCtx routes one probe batch and renders the outcome as a
// RouterBatchResponse: the struct form of what POST /cluster renders as
// JSON from the same rows, for handleLookup, embedders and tests. Always
// returns a response; per-shard failures are recorded in it, never
// escalated. The trace span tree roots in ctx — an inbound request whose
// header carried a span context makes the whole fan-out, including every
// shard's server-side spans, part of the caller's trace.
func (rt *Router) BatchCtx(ctx context.Context, addrs []netutil.Addr) *RouterBatchResponse {
	sc := getScratch()
	defer putScratch(sc)
	rt.route(ctx, sc, addrs)
	return sc.routedResponse(rt.cfg.Map, addrs)
}

// route fans addrs out: group by shard, one concurrent frame POST per
// non-empty shard, each shard's answer columns scattered back into
// sc.rows by input index. On return sc.reports holds every shard's slice
// of the batch; the rows of a shard whose report carries an error were
// never written and mean nothing.
func (rt *Router) route(ctx context.Context, sc *scratch, addrs []netutil.Addr) {
	m := rt.cfg.Map
	start := time.Now()
	ctx, span := obsv.StartTraceSpan(ctx, "router.batch")

	n, shards := len(addrs), len(m.Shards)
	sc.group(m, addrs)
	sc.rows = resize(sc.rows, n)
	sc.dense = resize(sc.dense, n)
	sc.wire = resize(sc.wire, wireFixed*shards+wirePerAddr*n)
	sc.reports = resize(sc.reports, shards)
	var wg sync.WaitGroup
	for sid, s := range m.Shards {
		k := sc.bounds[sid+1] - sc.bounds[sid]
		sc.reports[sid] = ShardReport{ID: sid, Addr: s.Addr, Addrs: k}
		if k > 0 {
			wg.Add(1)
			go rt.shardBatch(ctx, &wg, sc, sid)
		}
	}
	wg.Wait()

	degraded := 0
	for i := range sc.reports {
		if sc.reports[i].Error != "" {
			degraded++
		}
	}
	routerBatches.Inc()
	routerAddrs.Add(uint64(n))
	if degraded > 0 {
		routerDegraded.Inc()
	}
	routerFanoutNS.Observe(time.Since(start).Nanoseconds())
	span.SetAttrInt("addrs", int64(n))
	span.SetAttrInt("degraded_shards", int64(degraded))
	span.End()
}

// group sorts the batch by owning shard, keeping input order within a
// shard: one counting pass, one placing pass. bounds[s+1] first counts
// shard s, then holds its start, and placing advances it to its end —
// the next shard's start, which is what it must hold on return.
func (sc *scratch) group(m *Map, addrs []netutil.Addr) {
	n, shards := len(addrs), len(m.Shards)
	sc.bounds = resize(sc.bounds, shards+1)
	clear(sc.bounds)
	for _, a := range addrs {
		sc.bounds[m.owner[a>>24]+1]++
	}
	at := 0
	for s := 1; s <= shards; s++ {
		at, sc.bounds[s] = at+sc.bounds[s], at
	}
	sc.sorted = resize(sc.sorted, n)
	sc.order = resize(sc.order, n)
	for i, a := range addrs {
		s := int(m.owner[a>>24]) + 1
		sc.sorted[sc.bounds[s]], sc.order[sc.bounds[s]] = a, int32(i)
		sc.bounds[s]++
	}
}

// One shard's exchange takes its request frame, its response frame and
// one byte to catch a response that runs long; every shard's lives in
// sc.wire, in shard order.
const (
	wireFixed   = requestHeaderLen + responseHeaderLen + 1
	wirePerAddr = 4 + 6
)

// shardBatch runs shard sid's portion of a routed batch and records the
// outcome in its report.
func (rt *Router) shardBatch(ctx context.Context, wg *sync.WaitGroup, sc *scratch, sid int) {
	defer wg.Done()
	rep := &sc.reports[sid]
	lo, hi := sc.bounds[sid], sc.bounds[sid+1]
	buf := sc.wire[wireFixed*sid+wirePerAddr*lo : wireFixed*(sid+1)+wirePerAddr*hi]
	ctx, span := obsv.StartTraceSpan(ctx, "router.shard")
	span.SetAttrInt("shard", int64(sid))
	span.SetAttrInt("addrs", int64(hi-lo))
	start := time.Now()
	matches, gen, err := rt.askShard(ctx, rep.Addr, sc.sorted[lo:hi], sc.dense[lo:hi], buf)
	rt.stats[sid].record(time.Since(start), err != nil)
	if err != nil {
		routerShardErrs.Inc()
		span.Fail(err)
		span.End()
		rep.Error = err.Error()
		return
	}
	span.End()
	rep.Generation = gen
	for k, i := range sc.order[lo:hi] {
		sc.rows[i] = matches[k]
	}
}

// askShard sends one shard its addresses as a request frame and decodes
// the response frame into dst. Anything but a 200 carrying exactly the
// frame those addresses imply — another content type, a missing or
// different Content-Length, a short or long body, an invalid column, a
// prefix that does not cover its address — is the shard's error. The
// span context carried by ctx rides the request as an X-Netcluster-Trace
// header, so the shard's server-side spans join this trace.
func (rt *Router) askShard(ctx context.Context, base string, addrs []netutil.Addr, dst []bgp.Match, buf []byte) ([]bgp.Match, uint64, error) {
	frame := AppendRequestFrame(buf[:0], addrs)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/cluster", bytes.NewReader(frame))
	if err != nil {
		return nil, 0, err
	}
	req.Header["Content-Type"] = frameContentType
	obsv.HTTPInject(ctx, req.Header)
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, 0, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if ct := resp.Header.Get("Content-Type"); ct != FrameContentType {
		return nil, 0, fmt.Errorf("shard answered content type %q, want %s", ct, FrameContentType)
	}
	want := responseFrameLen(len(addrs))
	if resp.ContentLength != int64(want) {
		return nil, 0, fmt.Errorf("shard declared %d bytes for %d addresses, want %d", resp.ContentLength, len(addrs), want)
	}
	// Asking for one byte too many makes the expected outcome "the body
	// ended exactly at want".
	body := buf[len(frame):]
	switch got, err := io.ReadFull(resp.Body, body[:want+1]); {
	case err == nil:
		return nil, 0, fmt.Errorf("shard answered more than the %d bytes it declared", want)
	case got != want || err != io.ErrUnexpectedEOF:
		return nil, 0, fmt.Errorf("shard answered %d of %d bytes: %w", got, want, err)
	}
	matches, gen, err := DecodeResponseFrame(body[:want], len(addrs), dst)
	if err != nil {
		return nil, 0, err
	}
	for i, m := range matches {
		if !m.Prefix.IsZero() && !m.Prefix.Contains(addrs[i]) {
			return nil, 0, fmt.Errorf("batch frame: row %d: %s does not cover %s", i, m.Prefix, addrs[i])
		}
	}
	return matches, gen, nil
}

// liveGeneration is a routed batch's generation: the newest among the
// shards that answered.
func liveGeneration(reports []ShardReport) (gen uint64) {
	for _, rep := range reports {
		if rep.Error == "" && rep.Generation > gen {
			gen = rep.Generation
		}
	}
	return gen
}

// routedResponse renders the routed rows as the RouterBatchResponse
// struct.
func (sc *scratch) routedResponse(m *Map, addrs []netutil.Addr) *RouterBatchResponse {
	resp := &RouterBatchResponse{
		MapVersion: m.Version,
		Generation: liveGeneration(sc.reports),
		Results:    make([]RouterResult, len(addrs)),
		Shards:     append([]ShardReport(nil), sc.reports...),
	}
	for _, rep := range sc.reports {
		if rep.Error != "" {
			if resp.Degradation == nil {
				resp.Degradation = make(map[string]string)
			}
			resp.Degradation[strconv.Itoa(rep.ID)] = rep.Error
		}
	}
	for i, a := range addrs {
		sid := m.ShardFor(a)
		if rep := &sc.reports[sid]; rep.Error == "" {
			resp.Results[i] = RouterResult{LookupResult: ResolveMatch(a, sc.rows[i], rep.Generation), Shard: sid}
		} else {
			resp.Results[i] = RouterResult{LookupResult: LookupResult{Addr: a.String()}, Shard: sid, Error: rep.Error}
		}
	}
	return resp
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST an address list", http.StatusMethodNotAllowed)
		return
	}
	lim := Limits{MaxBatch: rt.cfg.MaxBatch, MaxBody: DefaultMaxBody}
	sc := getScratch()
	defer putScratch(sc)
	if err := sc.readBatch(r, false, lim); err != nil {
		writeBatchError(w, err, lim)
		return
	}
	rt.route(obsv.HTTPExtract(r.Context(), r.Header), sc, sc.addrs)
	sc.out = appendRoutedJSON(sc.out[:0], rt.cfg.Map, sc.addrs, sc.rows, sc.reports)
	writeBody(w, jsonContentType, sc.out)
}

// handleLookup proxies a single-address lookup to its owning shard.
func (rt *Router) handleLookup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("addr")
	addr, err := netutil.ParseAddr(q)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad addr %q: %v", q, err), http.StatusBadRequest)
		return
	}
	sid := rt.cfg.Map.ShardFor(addr)
	resp := rt.BatchCtx(obsv.HTTPExtract(r.Context(), r.Header), []netutil.Addr{addr})
	res := resp.Results[0]
	if res.Error != "" {
		http.Error(w, fmt.Sprintf("shard %d: %s", sid, res.Error), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

func (rt *Router) handleShardMap(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt.cfg.Map)
}

// handleHealthz probes every shard's /healthz; the router is healthy
// when it is up, and reports which shards are not.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	m := rt.cfg.Map
	type probe struct {
		id  int
		err error
	}
	ch := make(chan probe, len(m.Shards))
	for _, s := range m.Shards {
		go func(s Info) {
			resp, err := rt.client.Get(s.Addr + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("%s", resp.Status)
				}
			}
			ch <- probe{s.ID, err}
		}(s)
	}
	var down []string
	for range m.Shards {
		p := <-ch
		if p.err != nil {
			down = append(down, fmt.Sprintf("shard %d: %v", p.id, p.err))
		}
	}
	sort.Strings(down)
	if len(down) > 0 {
		w.WriteHeader(http.StatusOK) // router itself is healthy; degraded cluster
		fmt.Fprintf(w, "degraded (%d/%d shards down)\n", len(down), len(m.Shards))
		for _, d := range down {
			fmt.Fprintln(w, d)
		}
		return
	}
	fmt.Fprintf(w, "ok shards=%d map_version=%d\n", len(m.Shards), m.Version)
}

// handleReadyz mirrors clusterd's readiness semantics at the router: a
// draining router or one that can reach no shard at all answers 503 so
// load balancers rotate it out; a partially-degraded cluster stays
// ready (partial answers are the router's contract) but the body says
// so. The live-shard count and staleness come from the metrics
// aggregator, refreshed when older than FederateEvery.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	rt.agg.refreshIfStale(r.Context())
	live, total := rt.agg.LiveShards(), len(rt.cfg.Map.Shards)
	staleMS := rt.agg.Staleness().Milliseconds()
	if live == 0 {
		http.Error(w, fmt.Sprintf("no live shards (0/%d)", total), http.StatusServiceUnavailable)
		return
	}
	if live < total {
		fmt.Fprintf(w, "ready (degraded %d/%d shards live) staleness_ms=%d map_version=%d\n",
			live, total, staleMS, rt.cfg.Map.Version)
		return
	}
	fmt.Fprintf(w, "ready shards=%d/%d staleness_ms=%d map_version=%d\n",
		live, total, staleMS, rt.cfg.Map.Version)
}
