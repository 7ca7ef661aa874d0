package shard

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
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

	routerBatchSpan = obsv.RootSpan("router.batch")
	routerShardSpan = obsv.ChildSpan("router.shard")
)

// DefaultRouterTimeout bounds one shard's portion of a routed batch.
const DefaultRouterTimeout = 5 * time.Second

// RouterConfig configures a Router.
type RouterConfig struct {
	Map      *Map          // validated shard map with Addr filled in
	Client   *http.Client  // health probes and metrics federation; nil = http.DefaultTransport
	Timeout  time.Duration // per-shard request budget; 0 = DefaultRouterTimeout
	MaxBatch int           // addresses per routed batch; 0 = DefaultMaxBatch

	// Dial opens the connection a batch stream to a shard node runs on;
	// addr is the host:port of the shard's base URL. Nil dials TCP. It is
	// a seam for tests, which hand back pipes and fault injectors.
	Dial func(ctx context.Context, addr string) (net.Conn, error)

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
	client   *http.Client // health probes and federation; batches travel on conns
	conns    []shardConns // idle batch streams, by shard
	agg      *Aggregator
	stats    []shardStat
	draining atomic.Bool

	// exchanges numbers the untraced exchanges, whose stream header
	// carries the number in place of a span ID (askShard).
	exchanges atomic.Uint64
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
		if _, err := shardHost(s.Addr); err != nil {
			return nil, fmt.Errorf("shard router: shard %d: %w", s.ID, err)
		}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultRouterTimeout
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Dial == nil {
		dialer := &net.Dialer{KeepAlive: 30 * time.Second}
		cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return dialer.DialContext(ctx, "tcp", addr)
		}
	}
	// The client is built once; its Timeout is the per-shard budget.
	client := &http.Client{}
	if cfg.Client != nil {
		c := *cfg.Client
		client = &c
	}
	client.Timeout = cfg.Timeout
	shards := len(cfg.Map.Shards)
	rt := &Router{cfg: cfg, client: client, conns: make([]shardConns, shards), stats: make([]shardStat, shards)}
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

// Close closes the router's idle batch streams. A batch still in flight
// finishes, and closes its connections behind it.
func (rt *Router) Close() {
	for i := range rt.conns {
		rt.conns[i].close()
	}
}

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

// route fans addrs out: group by shard, one concurrent stream exchange
// per non-empty shard, each shard's answer columns scattered back into
// sc.rows by input index. On return sc.reports holds every shard's slice
// of the batch; the rows of a shard whose report carries an error were
// never written and mean nothing.
func (rt *Router) route(ctx context.Context, sc *scratch, addrs []netutil.Addr) {
	m := rt.cfg.Map
	ctx, span := routerBatchSpan.Start(ctx)

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
	span.SetAttrInt("addrs", int64(n))
	span.SetAttrInt("degraded_shards", int64(degraded))
	// The span times the batch, built or not: its clock reads serve the
	// fan-out histogram too.
	routerFanoutNS.Observe(span.End().Nanoseconds())
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

// One shard's exchange takes its request and its answer, a stream header
// and a frame each, and one byte to catch an answer that runs long; every
// shard's lives in sc.wire, in shard order.
const (
	wireFixed   = 2*streamHeaderLen + requestHeaderLen + responseHeaderLen + 1
	wirePerAddr = 4 + 6
)

// shardBatch runs shard sid's portion of a routed batch and records the
// outcome in its report.
func (rt *Router) shardBatch(ctx context.Context, wg *sync.WaitGroup, sc *scratch, sid int) {
	defer wg.Done()
	rep := &sc.reports[sid]
	lo, hi := sc.bounds[sid], sc.bounds[sid+1]
	buf := sc.wire[wireFixed*sid+wirePerAddr*lo : wireFixed*(sid+1)+wirePerAddr*hi]
	ctx, span := routerShardSpan.Start(ctx)
	span.SetAttrInt("shard", int64(sid))
	span.SetAttrInt("addrs", int64(hi-lo))
	matches, gen, err := rt.askShard(ctx, sid, rep.Addr, sc.sorted[lo:hi], sc.dense[lo:hi], buf)
	span.Fail(err)
	rt.stats[sid].record(span.End(), err != nil)
	if err != nil {
		routerShardErrs.Inc()
		rep.Error = err.Error()
		return
	}
	rep.Generation = gen
	for k, i := range sc.order[lo:hi] {
		sc.rows[i] = matches[k]
	}
}

// askShard runs one exchange with shard sid on a batch stream: its
// addresses go out as a request frame behind the span context ctx
// carries — which makes the shard's server-side spans part of this trace
// — or, untraced, behind a zero trace ID and the exchange's number, which
// keeps the header unique on the connection while the node samples the
// request on its own. The response frame is decoded into dst. Anything
// but exactly the frame those addresses imply, down to each prefix
// covering the address it answers, is the shard's error. The exchange has until ctx's deadline
// or the per-shard timeout, whichever is sooner.
//
// The connection comes off the shard's idle stack, or is dialed, and goes
// back only after an answer that passed every check or a 503 refusal;
// after anything else it is closed. One failure is retried, on a fresh
// connection: an idle connection that broke before the first byte of an
// answer arrived, which is how a node that restarted or closed it while
// it sat idle shows — net/http's rule for a kept-alive connection.
func (rt *Router) askShard(ctx context.Context, sid int, base string, addrs []netutil.Addr, dst []bgp.Match, buf []byte) ([]bgp.Match, uint64, error) {
	head, traced := obsv.SpanContextFrom(ctx)
	if !traced {
		head = obsv.SpanContext{SpanID: rt.exchanges.Add(1)}
	}
	req := binary.LittleEndian.AppendUint64(buf[:0], head.TraceID)
	req = binary.LittleEndian.AppendUint64(req, head.SpanID)
	req = AppendRequestFrame(req, addrs)
	answer := buf[len(req):]

	now := time.Now()
	deadline := now.Add(rt.cfg.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	pool := &rt.conns[sid]
	conn := pool.get(base, now)
	for reused := conn != nil; ; reused = false {
		if conn == nil {
			var err error
			if conn, err = rt.openStream(ctx, base, deadline); err != nil {
				return nil, 0, err
			}
		}
		matches, gen, started, inStep, err := exchange(conn, deadline, req, answer, addrs, dst)
		if inStep {
			pool.put(conn, base, now)
		} else {
			conn.Close()
		}
		if err == nil || !reused || started || errors.Is(err, os.ErrDeadlineExceeded) {
			return matches, gen, err
		}
		conn = nil
	}
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
	if err := sc.readBatch(r, lim); err != nil {
		writeBatchError(w, err, lim)
		return
	}
	rt.route(obsv.HTTPExtract(r.Context(), r.Header), sc, sc.addrs)
	sc.out = appendRoutedJSON(sc.out[:0], rt.cfg.Map, sc.addrs, sc.rows, sc.reports)
	writeBody(w, jsonContentType, sc.out)
}

// handleLookup proxies a single-address lookup to its owning shard.
func (rt *Router) handleLookup(w http.ResponseWriter, r *http.Request) {
	addr, err := LookupAddr(w, r)
	if err != nil {
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
