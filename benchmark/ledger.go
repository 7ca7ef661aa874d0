package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/shard"
)

// The traced run. It prints the per-layer ledger and nothing else: the
// stage table (stages.go), then the two serving paths taken apart from
// outside. For a sample of requests the harness times the real HTTP round
// trip, posts each shard's slice straight to its node, and replays the
// request's own bytes through the public function of every stage the
// daemons run. The replayed stages are laid on the request's timeline as
// child spans (shards side by side); what the children do not cover is
// the request span's self time — loopback, net/http, scheduling — and is
// printed as unattributed, a finding rather than noise.
//
// The ledger is the same procedure whichever workload is named: it covers
// every layer, so one traced run answers "which layer moved".

const (
	ledgerRouted = 150  // unloaded routed requests taken apart
	ledgerSingle = 2000 // unloaded single-address requests taken apart
	replayEvery  = 8    // under load, every n-th traced request is replayed
	loadedWindow = time.Second
	loadedPairs  = 4 // untraced/traced window pairs under load
)

type ledger struct {
	e     *env
	res   *result
	tr    *tracer
	epoch time.Time // zero of every span's clock
	table *bgp.Compiled
	busy  *cluster.BoundedAccumulator
	busyM sync.Mutex // clusterd, too, takes one lock per batch
	smap  *shard.Map
	reqID atomic.Int64
}

func (e *env) runLedger(workload string) (*result, error) {
	l := &ledger{e: e, res: &result{}, tr: &tracer{}, epoch: time.Now(), smap: shard.NewMap(2)}
	w, err := genWorld(worldASes)
	if err != nil {
		return nil, err
	}
	addrs, err := w.addrs(numBodies*batchAddrs, e.seed)
	if err != nil {
		return nil, err
	}
	in, err := newStageInputs(w, addrs, e.seed)
	if err != nil {
		return nil, err
	}
	l.table = in.gen0
	if l.busy, err = cluster.NewBoundedAccumulator(cluster.BoundedConfig{}); err != nil {
		return nil, err
	}
	// The stage table runs before any daemon is up, so nothing competes
	// with it for the two cores.
	if err := l.stageTable(in); err != nil {
		return nil, err
	}

	ready := func() <-chan worldInputs {
		ch := make(chan worldInputs, 1)
		ch <- worldInputs{w: w, addrs: addrs, oracle: newOracle(w)}
		return ch
	}
	routed, err := e.setupRouted(ready())
	if err != nil {
		return nil, err
	}
	single, err := e.setupSingle(ready())
	if err != nil {
		return nil, err
	}
	var answers [2][]answer
	if answers[0], err = l.routedLedger(routed); err != nil {
		return nil, err
	}
	if answers[1], err = l.singleLedger(single); err != nil {
		return nil, err
	}
	samples, err := l.loadedPhase(routed)
	if err != nil {
		return nil, err
	}
	if err := e.rig.allAlive(); err != nil {
		return nil, fmt.Errorf("self-check: %w", err)
	}
	if err := l.counters(routed, single); err != nil {
		return nil, err
	}

	err = routed.oracle.verify(answers[0])
	if err == nil {
		err = single.oracle.verify(answers[1])
	}
	if err == nil {
		_, err = routed.checkSamples(samples)
	}
	l.res.Correct = err == nil && l.res.Failed == 0
	if err != nil {
		l.res.Failed++
		l.res.note("INCORRECT: %v", err)
	}

	path := filepath.Join(e.root, buildDirName, fmt.Sprintf("trace-%s-seed%d.json", workload, e.seed))
	if err := writeChromeTrace(path, l.tr.spans); err != nil {
		return nil, err
	}
	l.res.note("trace: %d spans written to %s (open in chrome://tracing or ui.perfetto.dev)", len(l.tr.spans), path)
	return l.res, nil
}

// stage is one replayed stage: whose work it is and how long it took.
type stage struct {
	name string
	dur  time.Duration
}

func timed(name string, fn func()) stage {
	t0 := time.Now()
	fn()
	return stage{name, time.Since(t0)}
}

// lay records stages back to back as children of parent, starting at
// `at`, and returns where the last one ended.
func (l *ledger) lay(parent, req int, lane string, at time.Duration, stages []stage) time.Duration {
	for _, s := range stages {
		l.tr.add(parent, req, s.name, lane, at, at+s.dur)
		at += s.dur
	}
	return at
}

// nodeStages replays what a clusterd does with one batch body.
func (l *ledger) nodeStages(body []byte) (stages []stage, wire []byte) {
	var addrs []netutil.Addr
	var matches []bgp.Match
	var resp shard.BatchResponse
	var buf bytes.Buffer
	stages = append(stages,
		timed("shard.parse", func() { addrs, _ = shard.ParseAddrList(bytes.NewReader(body), shard.DefaultMaxBatch) }),
		timed("churn.lookup_batch", func() { matches = l.table.LookupBatch(addrs, nil) }),
		timed("cluster.busy_observe", func() {
			l.busyM.Lock()
			defer l.busyM.Unlock()
			for _, m := range matches {
				if m.Prefix.IsZero() {
					l.busy.ObserveUnclustered()
				} else {
					l.busy.Observe(m.Prefix, 0)
				}
			}
		}),
		timed("shard.resolve", func() {
			resp = shard.BatchResponse{Generation: 1, Results: make([]shard.LookupResult, len(addrs))}
			for i, a := range addrs {
				resp.Results[i] = shard.ResolveMatch(a, matches[i], 1)
			}
		}),
		timed("shard.encode", func() { json.NewEncoder(&buf).Encode(resp) }),
	)
	return stages, buf.Bytes()
}

// replayRouted replays one routed request's bytes through every stage of
// router and nodes and lays the stages under the request span `root`,
// which began at `at`.
func (l *ledger) replayRouted(root, req int, at time.Duration, body []byte) {
	var addrs []netutil.Addr
	var groups [][]int
	head := []stage{
		timed("shard.parse", func() { addrs, _ = shard.ParseAddrList(bytes.NewReader(body), shard.DefaultMaxBatch) }),
		timed("shard.group", func() { groups = l.smap.Group(addrs) }),
	}
	out := &shard.RouterBatchResponse{MapVersion: l.smap.Version, Results: make([]shard.RouterResult, len(addrs))}
	type lane struct {
		router []stage // the router's goroutine for this shard, before and after the hop
		node   []stage
	}
	lanes := make([]lane, len(groups))
	for sid, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		var slice bytes.Buffer
		lanes[sid].router = append(lanes[sid].router, timed("shard.slice", func() {
			for _, i := range idxs {
				slice.WriteString(addrs[i].String())
				slice.WriteByte('\n')
			}
		}))
		var wire []byte
		lanes[sid].node, wire = l.nodeStages(slice.Bytes())
		lanes[sid].router = append(lanes[sid].router, timed("shard.decode", func() {
			var br shard.BatchResponse
			json.NewDecoder(bytes.NewReader(wire)).Decode(&br)
			for k, i := range idxs {
				out.Results[i] = shard.RouterResult{LookupResult: br.Results[k], Shard: sid}
			}
		}))
	}
	tail := timed("shard.merge_encode", func() {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(out)
	})

	// Timeline: the router's span holds parse and group, then the shard
	// lanes side by side, then the merge once the slowest lane is done.
	fan := at
	for _, s := range head {
		fan += s.dur
	}
	join := fan
	ends := make([]time.Duration, len(lanes))
	for sid, ln := range lanes {
		ends[sid] = fan
		for _, s := range ln.router {
			ends[sid] += s.dur
		}
		for _, s := range ln.node {
			ends[sid] += s.dur
		}
		if ends[sid] > join {
			join = ends[sid]
		}
	}
	router := l.tr.add(root, req, "clusterrouter.batch", "clusterrouter", at, join+tail.dur)
	l.lay(router, req, "clusterrouter", at, head)
	for sid, ln := range lanes {
		if len(ln.router) == 0 {
			continue
		}
		name := fmt.Sprintf("clusterd/shard%d", sid)
		hop := l.tr.add(router, req, "shard.fanout", "clusterrouter/"+name, fan, ends[sid])
		t := l.lay(hop, req, "clusterrouter/"+name, fan, ln.router[:1])
		node := l.tr.add(hop, req, "clusterd.batch", name, t, t+sum(ln.node))
		t = l.lay(node, req, name, t, ln.node)
		l.lay(hop, req, "clusterrouter/"+name, t, ln.router[1:])
	}
	l.lay(router, req, "clusterrouter", join, []stage{tail})
}

func sum(stages []stage) time.Duration {
	var d time.Duration
	for _, s := range stages {
		d += s.dur
	}
	return d
}

// replaySingle replays one GET /lookup through clusterd's stages.
func (l *ledger) replaySingle(root, req int, at time.Duration, q string) {
	var addr netutil.Addr
	var m bgp.Match
	var row shard.LookupResult
	var buf bytes.Buffer
	stages := []stage{
		timed("netutil.parse_addr", func() { addr, _ = netutil.ParseAddr(q) }),
		timed("bgp.lookup_single", func() { m, _ = l.table.Lookup(addr) }),
		timed("shard.resolve", func() { row = shard.ResolveMatch(addr, m, 0) }),
		timed("shard.encode", func() { json.NewEncoder(&buf).Encode(row) }),
	}
	node := l.tr.add(root, req, "clusterd.lookup", "clusterd/node", at, at+sum(stages))
	l.lay(node, req, "clusterd/node", at, stages)
}

// attribution reduces the given request spans to the two ledger numbers: the median share of a request's time its stage spans cover,
// and the median time they do not.
func (l *ledger) attribution(roots []int) (share, unattributedMS float64) {
	self := selfTimes(l.tr.spans)
	var shares, rest []float64
	for _, id := range roots {
		s := l.tr.spans[id]
		dur := float64(s.End - s.Start)
		shares = append(shares, 1-float64(self[id])/dur)
		rest = append(rest, float64(self[id])/float64(time.Millisecond))
	}
	return median(shares), median(rest)
}

// routedLedger takes ledgerRouted unloaded routed requests apart.
func (l *ledger) routedLedger(s *served) ([]answer, error) {
	router, err := dialHTTP(s.load.base)
	if err != nil {
		return nil, err
	}
	defer router.close()
	var nodes []*hconn
	for _, f := range s.followers {
		c, err := dialHTTP(f.base)
		if err != nil {
			return nil, err
		}
		defer c.close()
		nodes = append(nodes, c)
	}
	var answers []answer
	var roots []int
	var routedMS, nodeMS, overheadMS []float64
	for i := 0; i < ledgerRouted; i++ {
		k := i % len(s.load.reqs)
		asked := s.asked[k]
		// The shard slices are cut before the clock starts.
		direct := make([][]byte, len(nodes))
		groups := l.smap.Group(asked)
		for sid, idxs := range groups {
			var b []byte
			for _, j := range idxs {
				b = asked[j].Append(b)
				b = append(b, '\n')
			}
			if len(idxs) > 0 {
				direct[sid] = postRequest(s.followers[sid].base, "/cluster", b)
			}
		}
		req := int(l.reqID.Add(1))
		t0 := time.Since(l.epoch)
		status, body, err := router.do(s.load.reqs[k])
		t1 := time.Since(l.epoch)
		if err != nil {
			return nil, err
		}
		l.res.Attempted++
		if _, ok := inspect(status, body, s.load.items); !ok {
			l.res.Failed++
			continue
		}
		rows, _, err := s.decode(asked, body)
		if err != nil {
			return nil, err
		}
		answers = append(answers, rows...)
		root := l.tr.add(-1, req, "client.request", "driver", t0, t1)
		roots = append(roots, root)

		slowest := time.Duration(0)
		for sid, r := range direct {
			if r == nil {
				continue
			}
			n0 := time.Since(l.epoch)
			status, nbody, err := nodes[sid].do(r)
			n1 := time.Since(l.epoch)
			if err != nil {
				return nil, err
			}
			l.res.Attempted++
			if _, ok := inspect(status, nbody, len(groups[sid])); !ok {
				l.res.Failed++
			}
			l.tr.add(-1, req, "client.direct_node_request", "driver", n0, n1)
			nodeMS = append(nodeMS, float64(n1-n0)/float64(time.Millisecond))
			if n1-n0 > slowest {
				slowest = n1 - n0
			}
		}
		routedMS = append(routedMS, float64(t1-t0)/float64(time.Millisecond))
		overheadMS = append(overheadMS, float64(t1-t0-slowest)/float64(time.Millisecond))
		l.replayRouted(root, req, t0, s.bodies[k])
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("no routed request succeeded")
	}
	l.res.set("clusterrouter.rtt_ms_p50", median(routedMS))
	l.res.set("clusterd.batch_rtt_ms_p50", median(nodeMS))
	l.res.set("clusterrouter.overhead_ms_p50", median(overheadMS))
	share, rest := l.attribution(roots)
	l.res.set("ledger.routed_batch.attributed_share", share)
	l.res.set("ledger.routed_batch.unattributed_ms", rest)
	return answers, nil
}

// singleLedger takes ledgerSingle unloaded GET /lookup requests apart.
func (l *ledger) singleLedger(s *served) ([]answer, error) {
	c, err := dialHTTP(s.load.base)
	if err != nil {
		return nil, err
	}
	defer c.close()
	var answers []answer
	var roots []int
	var rttMS []float64
	for i := 0; i < ledgerSingle; i++ {
		k := i % len(s.load.reqs)
		req := int(l.reqID.Add(1))
		t0 := time.Since(l.epoch)
		status, body, err := c.do(s.load.reqs[k])
		t1 := time.Since(l.epoch)
		if err != nil {
			return nil, err
		}
		l.res.Attempted++
		if _, ok := inspect(status, body, 1); !ok {
			l.res.Failed++
			continue
		}
		rows, _, err := s.decode(s.asked[k], body)
		if err != nil {
			return nil, err
		}
		answers = append(answers, rows...)
		root := l.tr.add(-1, req, "client.request", "driver", t0, t1)
		roots = append(roots, root)
		rttMS = append(rttMS, float64(t1-t0)/float64(time.Millisecond))
		l.replaySingle(root, req, t0, s.asked[k][0].String())
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("no single-address request succeeded")
	}
	l.res.set("clusterd.lookup_rtt_ms_p50", median(rttMS))
	share, rest := l.attribution(roots)
	l.res.set("ledger.node_small.attributed_share", share)
	l.res.set("ledger.node_small.unattributed_ms", rest)
	return answers, nil
}

// loadedPhase drives routed_batch closed-loop through alternating
// untraced and traced windows. In a traced window every request gets a
// client span and every replayEvery-th is replayed stage by stage on the
// driver's goroutine; the drop in completed addresses against the
// untraced windows is the tracing overhead. Meanwhile the followers'
// /readyz is polled for feed lag.
func (l *ledger) loadedPhase(s *served) ([]sample, error) {
	ld := s.load
	var n atomic.Int64
	ld.onOp = func(win, conn, reqIdx int, start, end time.Time, body []byte) {
		if win < 0 || win%2 == 0 {
			return
		}
		req := int(l.reqID.Add(1))
		at := start.Sub(l.epoch)
		root := l.tr.add(-1, req, "client.request", fmt.Sprintf("driver/conn%d", conn), at, end.Sub(l.epoch))
		if n.Add(1)%replayEvery == 0 {
			l.replayRouted(root, req, at, s.bodies[reqIdx])
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var maxLag uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for _, f := range s.followers {
				var r struct {
					FeedLag uint64 `json:"feed_lag_generations"`
				}
				if getJSON(f.base+"/readyz", &r) == nil && r.FeedLag > maxLag {
					maxLag = r.FeedLag
				}
			}
		}
	}()
	ph, err := runLoad(ld, s.pids(), s.bases(), loadedWindow, loadedWindow, 2*loadedPairs)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	var items [2]int
	for i, w := range ph.splitWindows(ld.items) {
		l.res.Attempted += w.ops
		l.res.Failed += w.failed
		items[i%2] += w.items
	}
	if items[0] == 0 {
		return nil, fmt.Errorf("no address completed in the untraced windows")
	}
	l.res.set("trace.overhead_share", 1-float64(items[1])/float64(items[0]))
	l.res.set("shard.feed_lag_max_generations", float64(maxLag))
	return ph.samples, nil
}

// counters reads the daemons' own refusal and degradation counters.
func (l *ledger) counters(routed, single *served) error {
	read := func(base string) (map[string]uint64, error) {
		var snap obsv.Snapshot
		err := getJSON(base+"/metrics.json", &snap)
		return snap.Counters, err
	}
	var rejected, batches uint64
	for _, c := range append(append([]*child(nil), routed.followers...), single.system...) {
		m, err := read(c.base)
		if err != nil {
			return err
		}
		rejected += m["clusterd.batch.rejected"]
		batches += m["clusterd.batches"]
	}
	rm, err := read(routed.load.base)
	if err != nil {
		return err
	}
	if batches == 0 || rm["shard.router.batches"] == 0 {
		return fmt.Errorf("the daemons counted no batch")
	}
	l.res.set("clusterd.rejected_share", float64(rejected)/float64(rejected+batches))
	l.res.set("clusterrouter.degraded_share", float64(rm["shard.router.degraded_batches"])/float64(rm["shard.router.batches"]))
	return nil
}
