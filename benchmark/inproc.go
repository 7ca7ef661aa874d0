package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/weblog"
)

// The two in-process workloads call the packages directly; no socket is
// opened and the serving layers sit idle. The system under test is the
// benchmark process itself, so CPU comes from getrusage, allocations from
// runtime/metrics (read at the window edges; unlike ReadMemStats it does
// not stop the world) and peak RSS from /proc/self.

// loopWindow is one window of an in-process loop. Windows end on an
// operation boundary, so a window never holds a fraction of an operation.
type loopWindow struct {
	seconds float64
	items   int
	cpu     float64         // process CPU seconds
	allocs  allocCounts     // process-wide heap allocations
	lat     []time.Duration // per operation, when recorded
	start   time.Duration   // since the loop's start
	end     time.Duration
}

// heapAllocs reads the process's cumulative allocation counters. Objects
// include the tiny allocator's, as MemStats.Mallocs does.
func heapAllocs() allocCounts {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return allocCounts{s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// runLoop calls op back to back on the calling goroutine: a warm-up, then
// `windows` windows of at least `window` each.
func runLoop(op func() (items int), recordLat bool, warm, window time.Duration, windows int) []loopWindow {
	t0 := time.Now()
	warmOps := 0
	for time.Since(t0) < warm {
		op()
		warmOps++
	}
	perWindow := int(float64(warmOps)/warm.Seconds()*window.Seconds()*1.5) + 16
	ws := make([]loopWindow, windows)
	if recordLat {
		for i := range ws {
			ws[i].lat = make([]time.Duration, 0, perWindow)
		}
	}
	for i := range ws {
		w := &ws[i]
		start, cpu0, allocs0 := time.Now(), selfCPUSeconds(), heapAllocs()
		w.start = start.Sub(t0)
		for {
			s := time.Now()
			w.items += op()
			d := time.Since(s)
			if recordLat {
				w.lat = append(w.lat, d)
			}
			if time.Since(start) >= window {
				break
			}
		}
		w.seconds = time.Since(start).Seconds()
		w.cpu = selfCPUSeconds() - cpu0
		w.allocs = heapAllocs().sub(allocs0)
		w.end = time.Since(t0)
	}
	return ws
}

// sortedMS converts latencies to ascending milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// numKept is how many of the sixteen windows the pooled estimates keep.
const numKept = 10

// keptWindows ranks the windows by item rate and returns the ten fastest.
// The in-process workloads' windows hold too few operations for a tail
// percentile of their own, and a whole-phase figure is hostage to the box:
// when a neighbour slows a third of a run, p90 lands inside the slow
// stretch or outside it by luck, and table_churn's allocations per item —
// the writer allocates by the clock, the reader resolves by its speed —
// swing with it. So the six slowest windows are set aside as interference
// and the tail and the allocation counts are taken over the other ten.
func keptWindows(lws []loopWindow) []int {
	order := make([]int, len(lws))
	for i := range order {
		order[i] = i
	}
	rate := func(i int) float64 { return float64(lws[i].items) / lws[i].seconds }
	sort.SliceStable(order, func(a, b int) bool { return rate(order[a]) > rate(order[b]) })
	if len(order) > numKept {
		order = order[:numKept]
	}
	return order
}

// pooledTail is the p-th percentile of the operations in the kept
// windows, refused without ten samples beyond it.
func pooledTail(windows [][]float64, kept []int, p float64) (float64, error) {
	var pool []float64
	for _, i := range kept {
		pool = append(pool, windows[i]...)
	}
	if samplesBeyond(len(pool), p) < 10 {
		return 0, fmt.Errorf("self-check: %d operations in the %d fastest windows, too few for p%g", len(pool), len(kept), p)
	}
	return percentile(sortedCopy(pool), p), nil
}

// finishInProcess reduces an in-process workload's windows to its metrics.
// lats holds each window's operation latencies, ascending, in ms.
func (res *result) finishInProcess(lws []loopWindow, lats [][]float64, tailPct float64) error {
	var ws []window
	for i, lw := range lws {
		res.Attempted += len(lats[i])
		ws = append(ws, newWindow(lw.items, lw.seconds, lats[i], lw.cpu))
	}
	kept := keptWindows(lws)
	tail, err := pooledTail(lats, kept, tailPct)
	if err != nil {
		return err
	}
	if err := res.timing(ws, tail); err != nil {
		return err
	}
	var allocs allocCounts
	items := 0
	for _, i := range kept {
		allocs.mallocs += lws[i].allocs.mallocs
		allocs.bytes += lws[i].allocs.bytes
		items += lws[i].items
	}
	res.set(mAllocs, float64(allocs.mallocs)/float64(items))
	res.set(mAllocBytes, float64(allocs.bytes)/float64(items))
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	res.set(mPeakRSS, rss)
	return nil
}

// ---- offline_log -----------------------------------------------------------

// offlineTailPct: the ten windows of the pooled tail normally hold about
// 120 passes; p85 needs 67, so a host at 60% of its speed still gets an
// answer instead of a failed run.
const offlineTailPct = 85

type offlineInputs struct {
	na  cluster.NetworkAware
	log *weblog.Log
	clf []byte
}

// setupOffline generates the world, compiles the table, generates the log
// and checks the first streamed pass against cluster.ClusterLog.
func setupOffline(seed int64) (*offlineInputs, error) {
	w, err := genWorld(worldASes)
	if err != nil {
		return nil, err
	}
	in := &offlineInputs{na: cluster.NetworkAware{Table: w.merged()}.Compile()}
	if in.log, in.clf, err = w.clfLog(seed); err != nil {
		return nil, err
	}
	got, err := cluster.ClusterStreamCtx(context.Background(), bytes.NewReader(in.clf), in.na)
	if err != nil {
		return nil, err
	}
	return in, checkOfflinePass(got, cluster.ClusterLog(in.log, in.na))
}

// checkOfflinePass compares a streamed pass with the in-memory reference:
// cluster count, request total, the ten busiest clusters, and the share
// of requests that clustered.
func checkOfflinePass(got *cluster.StreamResult, want *cluster.Result) error {
	if got.TotalRequests != want.TotalRequests {
		return fmt.Errorf("stream pass saw %d requests, ClusterLog %d", got.TotalRequests, want.TotalRequests)
	}
	if len(got.Clusters) != len(want.Clusters) {
		return fmt.Errorf("stream pass found %d clusters, ClusterLog %d", len(got.Clusters), len(want.Clusters))
	}
	clustered := 0
	for _, c := range got.Clusters {
		clustered += c.Requests
	}
	if hit := float64(clustered) / float64(got.TotalRequests); hit < minHitRate {
		return fmt.Errorf("self-check: only %.2f%% of records clustered, want >= %.0f%%", 100*hit, 100*minHitRate)
	}
	busiest := want.ByRequestsDesc()
	if len(busiest) > 10 {
		busiest = busiest[:10]
	}
	for _, wc := range busiest {
		gc := got.Clusters[wc.Prefix]
		if gc == nil || gc.Requests != wc.Requests || gc.NumClients() != wc.NumClients() || gc.Bytes != wc.Bytes {
			return fmt.Errorf("busy cluster %v differs between stream pass and ClusterLog", wc.Prefix)
		}
	}
	return nil
}

// runOfflineLog is the paper's actual job: cluster.ClusterStreamCtx over
// an in-memory CLF log, pass after pass on one goroutine.
func (e *env) runOfflineLog() (*result, error) {
	res := &result{}
	var in *offlineInputs
	err := res.timeSetups(func() { in = nil }, func() (err error) {
		in, err = setupOffline(e.seed)
		return err
	})
	if err != nil {
		return nil, err
	}

	var passErr error
	op := func() int {
		r, err := cluster.ClusterStreamCtx(context.Background(), bytes.NewReader(in.clf), in.na)
		if err != nil {
			passErr = err
			return 0
		}
		return r.TotalRequests
	}
	winLen := time.Duration(e.seconds) * time.Second / numWindows
	lws := runLoop(op, true, warmup, winLen, numWindows)
	if passErr != nil {
		return nil, passErr
	}

	var lats [][]float64
	for _, lw := range lws {
		lats = append(lats, sortedMS(lw.lat))
	}
	if err := res.finishInProcess(lws, lats, offlineTailPct); err != nil {
		return nil, err
	}
	res.note("log: %d records, %d bytes of CLF, %d passes measured", len(in.log.Requests), len(in.clf), res.Attempted)
	res.Correct = true // every set-up compared its first pass with ClusterLog
	return res, nil
}

// ---- table_churn -----------------------------------------------------------

const (
	// churnPeriod is the writer's fixed schedule. A normal delta takes
	// about 2.3 ms to apply and the 15% that are bursts about 20 ms, so at
	// 20 ms the writer is busy a quarter of the time. At 10 ms it was busy
	// half the time, deltas queued behind every burst, and the queue turned
	// a host 20% slower into a tail 50% longer: lat_tail_ms ranged over
	// 22–27% between runs of the same code, the worst pair of the benchmark.
	churnPeriod   = 20 * time.Millisecond
	churnTailPct  = 95 // ≈ 500 deltas in the pooled tail's ten windows
	churnProbes   = 10000
	churnSchedule = 2 // deltas pre-generated: this many times the run needs
)

type churnInputs struct {
	w      *world
	table  *churn.Table
	addrs  []netutil.Addr
	deltas []bgp.Delta
}

// setupTableChurn generates the world, compiles the churn table, draws
// the reader's addresses and checks the first batch against single-probe
// lookups.
func setupTableChurn(seed int64, nDeltas int) (*churnInputs, error) {
	w, err := genWorld(worldASes)
	if err != nil {
		return nil, err
	}
	in := &churnInputs{w: w, table: churn.New(w.merged())}
	if in.addrs, err = w.addrs(readerAddrs, seed); err != nil {
		return nil, err
	}
	// The churn feed is part of the dataset, as it is for the compiler
	// node of routed_batch; the seed shuffles what the reader asks.
	gen := w.churnGen(datasetSeed)
	for i := 0; i < nDeltas; i++ {
		in.deltas = append(in.deltas, gen.Next())
	}
	matches, _ := in.table.LookupBatch(in.addrs, nil)
	hits := 0
	for i, a := range in.addrs {
		m, ok := in.table.Lookup(a)
		if m != matches[i] {
			return nil, fmt.Errorf("LookupBatch(%v) = %+v, Lookup = %+v", a, matches[i], m)
		}
		if ok {
			hits++
		}
	}
	if hit := float64(hits) / float64(len(in.addrs)); hit < minHitRate {
		return nil, fmt.Errorf("self-check: only %.2f%% of addresses clustered, want >= %.0f%%", 100*hit, 100*minHitRate)
	}
	return in, nil
}

// runTableChurn reads beside writes on the same radix/bgp/churn
// structures: one reader calling LookupBatch back to back, one writer
// applying a ChurnGen delta every churnPeriod on a fixed schedule.
// Throughput, CPU and allocations are per address the reader resolved;
// latency is the writer's, from the moment a delta was due to the moment
// its generation was visible.
func (e *env) runTableChurn() (*result, error) {
	res := &result{}
	total := warmup + time.Duration(e.seconds)*time.Second
	nDeltas := churnSchedule * int(total/churnPeriod)
	var in *churnInputs
	err := res.timeSetups(func() { in = nil }, func() (err error) {
		in, err = setupTableChurn(e.seed, nDeltas)
		return err
	})
	if err != nil {
		return nil, err
	}

	type applied struct {
		done time.Duration // since the writer's start
		lat  time.Duration
	}
	var (
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		writes  []applied
		wrote   int
		wstart  = time.Now()
		badSwap error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		writes = make([]applied, 0, nDeltas)
		for k := 0; k < len(in.deltas); k++ {
			due := time.Duration(k) * churnPeriod
			select {
			case <-stop:
				return
			case <-time.After(due - time.Since(wstart)): // at once when running late
			}
			st := in.table.Apply(in.deltas[k])
			done := time.Since(wstart)
			if st.Generation != uint64(k+1) && badSwap == nil {
				badSwap = fmt.Errorf("delta %d published generation %d", k, st.Generation)
			}
			writes = append(writes, applied{done, done - due})
			wrote = k + 1
		}
	}()

	var dst []bgp.Match
	op := func() int {
		dst, _ = in.table.LookupBatch(in.addrs, dst)
		return len(in.addrs)
	}
	winLen := time.Duration(e.seconds) * time.Second / numWindows
	loopStart := time.Since(wstart)
	lws := runLoop(op, false, warmup, winLen, numWindows)
	close(stop)
	wg.Wait()
	if badSwap != nil {
		return nil, badSwap
	}
	if wrote == len(in.deltas) {
		return nil, fmt.Errorf("self-check: the writer ran out of its %d pre-generated deltas", len(in.deltas))
	}

	// Assign each applied delta to the reader window it completed in.
	var lats [][]float64
	wi := 0
	for _, lw := range lws {
		for wi < len(writes) && writes[wi].done <= loopStart+lw.start {
			wi++ // applied during the warm-up or between windows
		}
		var lat []time.Duration
		for ; wi < len(writes) && writes[wi].done <= loopStart+lw.end; wi++ {
			lat = append(lat, writes[wi].lat)
		}
		lats = append(lats, sortedMS(lat))
	}
	if err := res.finishInProcess(lws, lats, churnTailPct); err != nil {
		return nil, err
	}
	res.note("writer: %d deltas applied in all, %d inside the windows", wrote, res.Attempted)

	err = checkFinalTable(in, wrote, e.seed)
	res.Correct = err == nil
	if err != nil {
		res.Failed++
		res.note("INCORRECT: %v", err)
	}
	return res, nil
}

// checkFinalTable compares the table after `wrote` deltas with a
// from-scratch Merged.Compile() of the prefixes that are live now, on
// churnProbes addresses: half drawn from the address stream (hits), half
// uniform (mostly misses).
func checkFinalTable(in *churnInputs, wrote int, seed int64) error {
	live := make(map[netutil.Prefix]bgp.Entry)
	for _, e := range in.w.universe.Entries {
		if _, dup := live[e.Prefix]; !dup {
			live[e.Prefix] = e
		}
	}
	for _, d := range in.deltas[:wrote] {
		for _, op := range d.Ops {
			if op.Withdraw {
				delete(live, op.Entry.Prefix)
			} else {
				live[op.Entry.Prefix] = op.Entry
			}
		}
	}
	ref := bgp.NewMerged()
	snap := &bgp.Snapshot{Name: in.w.universe.Name, Kind: bgp.SourceBGP}
	for _, e := range live {
		snap.Entries = append(snap.Entries, e)
	}
	ref.Add(snap)
	for _, r := range in.w.coll.Registries {
		ref.Add(r)
	}
	want := ref.Compile()
	got := in.table.Load()
	if got.NumPrimary() != want.NumPrimary() || got.NumSecondary() != want.NumSecondary() {
		return fmt.Errorf("final table holds %d+%d prefixes, a fresh compile %d+%d",
			got.NumPrimary(), got.NumSecondary(), want.NumPrimary(), want.NumSecondary())
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < churnProbes; i++ {
		a := netutil.Addr(rng.Uint32())
		if i%2 == 0 {
			a = in.addrs[rng.Intn(len(in.addrs))]
		}
		gm, gok := got.Lookup(a)
		wm, wok := want.Lookup(a)
		if gok != wok || gm != wm {
			return fmt.Errorf("final table answers %+v for %v, a fresh compile %+v", gm, a, wm)
		}
	}
	return nil
}
