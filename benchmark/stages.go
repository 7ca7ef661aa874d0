package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/radix"
	"github.com/netaware/netcluster/internal/shard"
	"github.com/netaware/netcluster/internal/sketch"
	"github.com/netaware/netcluster/internal/weblog"
)

// The stage table: every layer's public functions, timed in-process on the
// run's own generated inputs. Layers are package names. Each number is the
// best of a few short rounds — the same fast-side rule as the windows.

// stageBench times fn, which handles `units` units per call, and returns
// the best nanoseconds per unit over rounds of at least 40 ms. The whole
// timing is recorded as one span on the "stages" lane.
func (l *ledger) stageBench(name string, units int, fn func()) float64 {
	const rounds, minRound = 5, 40 * time.Millisecond
	start := time.Since(l.epoch)
	best := math.Inf(1)
	for r := 0; r < rounds; r++ {
		calls, t0 := 0, time.Now()
		for time.Since(t0) < minRound {
			fn()
			calls++
		}
		best = math.Min(best, float64(time.Since(t0).Nanoseconds())/float64(calls*units))
	}
	l.tr.add(-1, -1, name, "stages", start, time.Since(l.epoch))
	return best
}

// allocsPer returns heap allocations per unit of one call of fn, after a
// warming call.
func allocsPer(units int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(units)
}

// stageInputs are the generated inputs the stage table runs on.
type stageInputs struct {
	w      *world
	bodies [][]byte         // POST /cluster bodies
	asked  [][]netutil.Addr // the same, parsed
	reader []netutil.Addr   // table_churn's reader batch
	deltas []bgp.Delta
	log    *weblog.Log
	clf    []byte
	table  *churn.Table
	gen0   *bgp.Compiled
}

func newStageInputs(w *world, addrs []netutil.Addr, seed int64) (*stageInputs, error) {
	in := &stageInputs{w: w, bodies: batchBodies(addrs, batchAddrs), reader: addrs[:readerAddrs]}
	for lo := 0; lo+batchAddrs <= len(addrs); lo += batchAddrs {
		in.asked = append(in.asked, addrs[lo:lo+batchAddrs])
	}
	gen := w.churnGen(datasetSeed)
	for i := 0; i < 64; i++ {
		in.deltas = append(in.deltas, gen.Next())
	}
	var err error
	if in.log, in.clf, err = w.clfLog(seed); err != nil {
		return nil, err
	}
	in.table = churn.New(w.merged())
	in.gen0 = in.table.Load()
	return in, nil
}

// stageTable measures every in-process layer metric.
func (l *ledger) stageTable(in *stageInputs) error {
	res := l.res
	next := 0
	body := func() []byte { next++; return in.bodies[next%len(in.bodies)] }
	batch := func() []netutil.Addr { next++; return in.asked[next%len(in.asked)] }

	// shard, request side: what router and node both pay per batch.
	parse := func() { shard.ParseAddrList(bytes.NewReader(body()), shard.DefaultMaxBatch) }
	res.set("shard.parse_ns_per_addr", l.stageBench("shard.parse", batchAddrs, parse))
	res.set("shard.parse_allocs_per_addr", allocsPer(batchAddrs, parse))
	m := shard.NewMap(2)
	res.set("shard.group_ns_per_addr", l.stageBench("shard.group", batchAddrs, func() { m.Group(batch()) }))

	// shard, response side: resolve, encode, and the router's decode of
	// the same bytes.
	one := in.asked[0]
	matches := in.gen0.LookupBatch(one, nil)
	rows := make([]shard.LookupResult, len(one))
	resolve := func() {
		for i, a := range one {
			rows[i] = shard.ResolveMatch(a, matches[i], 7)
		}
	}
	res.set("shard.resolve_ns_per_addr", l.stageBench("shard.resolve", batchAddrs, resolve))
	res.set("shard.resolve_allocs_per_addr", allocsPer(batchAddrs, resolve))
	resp := shard.BatchResponse{Generation: 7, Results: rows}
	var wire bytes.Buffer
	encode := func() {
		wire.Reset()
		json.NewEncoder(&wire).Encode(resp)
	}
	res.set("shard.encode_ns_per_addr", l.stageBench("shard.encode", batchAddrs, encode))
	res.set("shard.encode_bytes_per_addr", float64(wire.Len())/batchAddrs)
	res.set("shard.decode_ns_per_addr", l.stageBench("shard.decode", batchAddrs, func() {
		var br shard.BatchResponse
		json.NewDecoder(bytes.NewReader(wire.Bytes())).Decode(&br)
	}))

	// radix, bgp, churn: the kernel and the table around it.
	mb := radix.NewMultibit[struct{}]()
	in.w.merged().Walk(func(p netutil.Prefix, _ *bgp.Provenance) bool {
		mb.Insert(p, struct{}{})
		return true
	})
	frozen := mb.Freeze()
	var rowIdx []int32
	res.set("radix.lookup_batch_ns_per_addr", l.stageBench("radix.lookup_batch", readerAddrs, func() {
		rowIdx = frozen.LookupBatch(in.reader, rowIdx)
	}))
	var dst []bgp.Match
	readBatch := func() { dst, _ = in.table.LookupBatch(in.reader, dst) }
	res.set("churn.lookup_batch_ns_per_addr", l.stageBench("churn.lookup_batch", readerAddrs, readBatch))
	hits := 0
	res.set("bgp.lookup_single_ns_per_addr", l.stageBench("bgp.lookup_single", readerAddrs, func() {
		for _, a := range in.reader {
			if _, ok := in.gen0.Lookup(a); ok {
				hits++
			}
		}
	}))

	compileMS := math.Inf(1)
	for i := 0; i < 2; i++ {
		merged := in.w.merged()
		t0 := time.Now()
		merged.Compile()
		compileMS = math.Min(compileMS, time.Since(t0).Seconds()*1e3)
	}
	res.set("bgp.compile_ms", compileMS)
	loadMS := math.Inf(1)
	path := filepath.Join(l.e.rig.dir, "table.nct")
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := bgp.SaveTable(path, in.gen0); err != nil {
			return err
		}
		tf, err := bgp.OpenTable(path)
		if err != nil {
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
		loadMS = math.Min(loadMS, time.Since(t0).Seconds()*1e3)
	}
	res.set("bgp.snapshot_load_ms", loadMS)

	// One pass over the seeded deltas each: applying changes the table,
	// so these are single measurements, not best-of.
	inc := bgp.NewIncremental(in.w.merged())
	ops, t0 := 0, time.Now()
	for _, d := range in.deltas {
		inc.Apply(d)
		ops += len(d.Ops)
	}
	res.set("bgp.delta_apply_ns_per_op", float64(time.Since(t0).Nanoseconds())/float64(ops))

	// churn: the reader's rate at rest, then beside a writer applying a
	// delta every churnPeriod, which also yields the swap time.
	rate := func() float64 {
		n, t0 := 0, time.Now()
		for time.Since(t0) < 400*time.Millisecond {
			readBatch()
			n++
		}
		return float64(n) / time.Since(t0).Seconds()
	}
	steady := rate()
	var applyMS []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(churnPeriod)
		defer tick.Stop()
		for _, d := range in.deltas {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			in.table.Apply(d)
			applyMS = append(applyMS, time.Since(t0).Seconds()*1e3)
		}
	}()
	swapping := rate()
	close(stop)
	wg.Wait()
	if len(applyMS) == 0 {
		return fmt.Errorf("no delta applied while the reader ran")
	}
	res.set("churn.reader_slowdown_ratio", swapping/steady)
	res.set("churn.apply_ms_p50", median(applyMS))

	// shard feed: the delta wire format both ways.
	feedOps := 0
	var wires [][]byte
	for seq, d := range in.deltas {
		feedOps += len(d.Ops)
		b, err := json.Marshal(shard.EncodeDelta(uint64(seq+1), d))
		if err != nil {
			return err
		}
		wires = append(wires, b)
	}
	res.set("shard.delta_encode_ns_per_op", l.stageBench("shard.delta_encode", feedOps, func() {
		for seq, d := range in.deltas {
			json.Marshal(shard.EncodeDelta(uint64(seq+1), d))
		}
	}))
	var decodeErr error
	res.set("shard.delta_decode_ns_per_op", l.stageBench("shard.delta_decode", feedOps, func() {
		for _, b := range wires {
			var wd shard.WireDelta
			if err := json.Unmarshal(b, &wd); err != nil {
				decodeErr = err
			} else if _, err := shard.DecodeDelta(wd); err != nil {
				decodeErr = err
			}
		}
	}))
	if decodeErr != nil {
		return decodeErr
	}

	// weblog: the CLF parser alone.
	var clients []netutil.Addr
	before := obsv.TakeSnapshot().Counters
	if _, err := weblog.StreamCLF(bytes.NewReader(in.clf), func(r weblog.StreamRecord) bool {
		clients = append(clients, r.Request.Client)
		return true
	}); err != nil {
		return err
	}
	after := obsv.TakeSnapshot().Counters
	fast := after["weblog.parse.fast"] - before["weblog.parse.fast"]
	strict := after["weblog.parse.strict"] - before["weblog.parse.strict"]
	res.set("weblog.strict_fallback_share", float64(strict)/float64(fast+strict))
	records := len(clients)
	parseLog := func() {
		weblog.StreamCLF(bytes.NewReader(in.clf), func(weblog.StreamRecord) bool { return true })
	}
	parseNS := l.stageBench("weblog.parse", records, parseLog)
	res.set("weblog.parse_ns_per_record", parseNS)
	res.set("weblog.parse_allocs_per_record", allocsPer(records, parseLog))

	// cluster, sketch: lookup, accumulation, the bounded and the parallel
	// engine over the same log.
	na := cluster.NetworkAware{Compiled: in.gen0}
	prefixes, oks := make([]netutil.Prefix, records), make([]bool, records)
	lookupNS := l.stageBench("cluster.lookup", records, func() { na.ClusterBatch(clients, prefixes, oks) })
	res.set("cluster.lookup_ns_per_record", lookupNS)
	stream := func() { cluster.ClusterStream(bytes.NewReader(in.clf), na) }
	streamNS := l.stageBench("cluster.stream", records, stream)
	res.set("cluster.accumulate_ns_per_record", streamNS-parseNS-lookupNS)
	res.set("cluster.stream_allocs_per_record", allocsPer(records, stream))
	var bounded *cluster.BoundedStreamResult
	var boundedErr error
	res.set("cluster.bounded_ns_per_record", l.stageBench("cluster.stream_bounded", records, func() {
		bounded, boundedErr = cluster.ClusterStreamBounded(bytes.NewReader(in.clf), na, cluster.BoundedConfig{})
	}))
	if boundedErr != nil {
		return boundedErr
	}
	res.set("cluster.bounded_heap_mb", float64(bounded.Acc.FootprintBytes())/(1<<20))
	parallelNS := l.stageBench("cluster.stream_parallel", records, func() {
		cluster.ClusterStreamParallel(bytes.NewReader(in.clf), na, cluster.ParallelOptions{Workers: runtime.NumCPU()})
	})
	res.set("cluster.parallel_speedup", streamNS/parallelNS)

	acc, err := cluster.NewBoundedAccumulator(cluster.BoundedConfig{})
	if err != nil {
		return err
	}
	res.set("cluster.busy_observe_ns_per_addr", l.stageBench("cluster.busy_observe", len(matches), func() {
		for _, mt := range matches {
			acc.Observe(mt.Prefix, 0)
		}
	}))
	cm, err := sketch.NewCountMinError(1e-4, 0.01)
	if err != nil {
		return err
	}
	res.set("sketch.update_ns", l.stageBench("sketch.update", len(in.reader), func() {
		for _, a := range in.reader {
			cm.AddConservative(uint64(a), 1)
		}
	}))
	if hits == 0 {
		return fmt.Errorf("no reader address clustered")
	}
	return nil
}
