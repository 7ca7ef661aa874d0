package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/shard"
)

// The two serving workloads drive the real binaries over loopback HTTP.
//
// routed_batch: driver → clusterrouter → 2 shard clusterd followers fed by
// a compiler clusterd that churns every 250 ms; POST /cluster with 512
// addresses. The headline path: text parse, JSON, HTTP and fan-out do
// nearly all the work.
//
// node_small: driver → one clusterd, churn off; GET /lookup?addr= with one
// address. The smallest message: per-request cost dominates and the
// router, the batch kernel and the batch wire format are bypassed.

const (
	churnEvery = "250ms"
	feedPoll   = "100ms"
	// The tail percentile each serving workload's windows can claim with
	// ten samples beyond it even when the host runs at a quarter of its
	// speed: a one-second window normally holds about 450 routed batches
	// (p90 needs 100) and about 35,000 single lookups (p99 needs 1,000).
	routedTailPct = 90
	singleTailPct = 99
	// node_small drives four connections per CPU. With one per CPU the
	// cores idle between a request and its answer, every wake-up goes
	// through the hypervisor, and the rate follows the host's mood: in
	// alternating runs it ranged over 29% (18.7k–24.2k requests/s) at one
	// connection per CPU and 6% (32.7k–34.6k) at four.
	singleConnsPerCPU = 4
	// samples kept per window and connection for the oracle check.
	routedSampleK = 2
	singleSampleK = 16
)

// served is a booted serving workload, ready to be driven.
type served struct {
	system    []*child         // every process of the system under test
	followers []*child         // shard nodes, for feed lag (routed only)
	asked     [][]netutil.Addr // the addresses of each request
	bodies    [][]byte         // the POST bodies of each request (routed only)
	load      load
	oracle    *oracle
	// decode turns one answer body into rows plus the generation each
	// shard reported.
	decode func(asked []netutil.Addr, body []byte) ([]answer, map[int]uint64, error)
}

func (s *served) pids() []int {
	p := make([]int, len(s.system))
	for i, c := range s.system {
		p[i] = c.pid()
	}
	return p
}

func (s *served) bases() []string {
	b := make([]string, len(s.system))
	for i, c := range s.system {
		b[i] = c.base
	}
	return b
}

// worldInputs is what the harness derives from the seed while the
// daemons boot.
type worldInputs struct {
	w      *world
	addrs  []netutil.Addr
	oracle *oracle
	err    error
}

func genInputsAsync(seed int64) <-chan worldInputs {
	ch := make(chan worldInputs, 1)
	go func() {
		var in worldInputs
		in.w, in.err = genWorld(worldASes)
		if in.err == nil {
			in.addrs, in.err = in.w.addrs(numBodies*batchAddrs, seed)
		}
		if in.err == nil {
			in.oracle = newOracle(in.w)
		}
		ch <- in
	}()
	return ch
}

func (e *env) clusterdArgs(extra ...string) []string {
	e.sinkSeq++
	return append([]string{
		"-addr", "127.0.0.1:0",
		"-sink-dir", filepath.Join(e.rig.dir, fmt.Sprintf("sinks-%d", e.sinkSeq)),
	}, extra...)
}

// setupRouted boots compiler, two followers and the router while inputs
// (world, addresses, oracle) are generated from the same seed, and returns
// once the router gave its first correct answer.
func (e *env) setupRouted(inputs <-chan worldInputs) (*served, error) {
	compiler, err := e.rig.start("compiler", "clusterd", e.clusterdArgs(
		"-ases", strconv.Itoa(worldASes), "-seed", strconv.Itoa(datasetSeed),
		"-churn-every", churnEvery, "-feed-serve")...)
	if err != nil {
		return nil, err
	}
	var followers []*child
	for i := 0; i < 2; i++ {
		f, err := e.rig.launch(fmt.Sprintf("shard%d", i), "clusterd", e.clusterdArgs(
			"-feed", compiler.base, "-feed-poll", feedPoll,
			"-shard-index", strconv.Itoa(i), "-shard-count", "2")...)
		if err != nil {
			return nil, err
		}
		followers = append(followers, f)
	}
	for _, f := range followers {
		if err := f.await(); err != nil {
			return nil, err
		}
	}
	router, err := e.rig.start("router", "clusterrouter",
		"-addr", "127.0.0.1:0", "-shards", followers[0].base+","+followers[1].base)
	if err != nil {
		return nil, err
	}
	in := <-inputs
	if in.err != nil {
		return nil, in.err
	}
	s := &served{
		system:    []*child{router, followers[0], followers[1], compiler},
		followers: followers,
		oracle:    in.oracle,
		decode:    decodeRouted,
	}
	for lo := 0; lo+batchAddrs <= len(in.addrs); lo += batchAddrs {
		s.asked = append(s.asked, in.addrs[lo:lo+batchAddrs])
	}
	s.bodies = batchBodies(in.addrs, batchAddrs)
	var reqs [][]byte
	for _, body := range s.bodies {
		reqs = append(reqs, postRequest(router.base, "/cluster", body))
	}
	s.load = load{base: router.base, reqs: reqs, items: batchAddrs, conns: e.conns, sampleK: routedSampleK}
	return s, s.firstAnswer()
}

// setupSingle boots one clusterd with churn off.
func (e *env) setupSingle(inputs <-chan worldInputs) (*served, error) {
	node, err := e.rig.start("node", "clusterd", e.clusterdArgs(
		"-ases", strconv.Itoa(worldASes), "-seed", strconv.Itoa(datasetSeed), "-churn-every", "0")...)
	if err != nil {
		return nil, err
	}
	in := <-inputs
	if in.err != nil {
		return nil, in.err
	}
	s := &served{system: []*child{node}, oracle: in.oracle, decode: decodeSingle}
	var reqs [][]byte
	for i := range in.addrs {
		s.asked = append(s.asked, in.addrs[i:i+1])
		reqs = append(reqs, getRequest(node.base, "/lookup?addr="+in.addrs[i].String()))
	}
	s.load = load{base: node.base, reqs: reqs, items: 1, conns: singleConnsPerCPU * e.conns, sampleK: singleSampleK}
	return s, s.firstAnswer()
}

// firstAnswer sends request 0 and checks it against the oracle: the end
// of set-up is the first correct answer.
func (s *served) firstAnswer() error {
	c, err := dialHTTP(s.load.base)
	if err != nil {
		return err
	}
	defer c.close()
	status, body, err := c.do(s.load.reqs[0])
	if err != nil {
		return err
	}
	if _, ok := inspect(status, body, s.load.items); !ok {
		return fmt.Errorf("first answer refused or degraded: status %d: %.200s", status, body)
	}
	answers, _, err := s.decode(s.asked[0], body)
	if err != nil {
		return err
	}
	return s.oracle.verify(answers)
}

func decodeRouted(asked []netutil.Addr, body []byte) ([]answer, map[int]uint64, error) {
	var resp shard.RouterBatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, err
	}
	if len(resp.Results) != len(asked) {
		return nil, nil, fmt.Errorf("router returned %d rows for %d addresses", len(resp.Results), len(asked))
	}
	answers := make([]answer, len(asked))
	for i, r := range resp.Results {
		answers[i] = answer{asked[i], r.LookupResult}
	}
	gens := make(map[int]uint64)
	for _, rep := range resp.Shards {
		if rep.Addrs > 0 {
			gens[rep.ID] = rep.Generation
		}
	}
	return answers, gens, nil
}

func decodeSingle(asked []netutil.Addr, body []byte) ([]answer, map[int]uint64, error) {
	var res shard.LookupResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, nil, err
	}
	return []answer{{asked[0], res}}, map[int]uint64{0: res.Generation}, nil
}

// checkSamples verifies every kept answer against the oracle and that no
// shard's generation ever went backwards on a connection (a connection's
// requests are sequential, so its view of a shard must be monotonic).
func (s *served) checkSamples(samples []sample) (rows int, err error) {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	type key struct{ conn, shard int }
	last := make(map[key]uint64)
	var all []answer
	for _, sm := range samples {
		answers, gens, err := s.decode(s.asked[sm.req], sm.body)
		if err != nil {
			return rows, err
		}
		for sid, g := range gens {
			k := key{sm.conn, sid}
			if g < last[k] {
				return rows, fmt.Errorf("shard %d went backwards: generation %d after %d", sid, g, last[k])
			}
			last[k] = g
		}
		all = append(all, answers...)
	}
	return len(all), s.oracle.verify(all)
}

// runServing is the untraced run of a serving workload.
func (e *env) runServing(setup func(<-chan worldInputs) (*served, error), tailPct float64) (*result, error) {
	res := &result{}
	var s *served
	teardown := func() {
		e.rig.stopChildren()
		s = nil
	}
	err := res.timeSetups(teardown, func() (err error) {
		s, err = setup(genInputsAsync(e.seed))
		return err
	})
	if err != nil {
		return nil, err
	}

	winLen := time.Duration(e.seconds) * time.Second / numWindows
	ph, err := runLoad(s.load, s.pids(), s.bases(), warmup, winLen, numWindows)
	if err != nil {
		return nil, err
	}
	if err := e.rig.allAlive(); err != nil {
		return nil, fmt.Errorf("self-check: %w", err)
	}

	raw := ph.splitWindows(s.load.items)
	var ws []window
	var tails []float64
	var items, clustered int
	var sysCPU, selfCPU float64
	for _, w := range raw {
		res.Attempted += w.ops
		res.Failed += w.failed
		items += w.items
		clustered += w.clustered
		sysCPU += w.sysCPU
		selfCPU += w.selfCPU
		ws = append(ws, newWindow(w.items, w.seconds, w.latMS, w.sysCPU))
		// A window claims a tail percentile only with ten samples beyond
		// it; a window the hypervisor stalled holds too few and is left
		// out of the ranking rather than failing the run.
		if samplesBeyond(len(w.latMS), tailPct) >= 10 {
			tails = append(tails, percentile(w.latMS, tailPct))
		}
	}
	if ph.firstBad != "" {
		res.note("first failed operation: %s", ph.firstBad)
	}
	if len(tails) < numWindows/2 {
		return nil, fmt.Errorf("self-check: only %d of %d windows hold enough operations for p%g (%d of %d operations failed; first: %s)",
			len(tails), numWindows, tailPct, res.Failed, res.Attempted, ph.firstBad)
	}
	if err := res.timing(ws, lowerQuartile(tails)); err != nil {
		return nil, err
	}
	if hit := float64(clustered) / float64(items); hit < minHitRate {
		return nil, fmt.Errorf("self-check: only %.2f%% of addresses clustered, want >= %.0f%%", 100*hit, 100*minHitRate)
	}
	res.set(mAllocs, float64(ph.allocs.mallocs)/float64(ph.allocItems))
	res.set(mAllocBytes, float64(ph.allocs.bytes)/float64(ph.allocItems))

	rss := 0.0
	for _, c := range s.system {
		mb, err := peakRSSMB(c.pid())
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	res.set(mPeakRSS, rss)

	// The driver shares the box with the system; say how much of the CPU
	// it took, and flag the run when it was the larger consumer.
	share := selfCPU / (selfCPU + sysCPU)
	flag := ""
	if share > 0.5 {
		flag = "  ** driver-bound: the driver, not the system, used most of the CPU **"
	}
	res.note("cpu: system %.3f s, driver %.3f s, driver share %.1f%%%s", sysCPU, selfCPU, 100*share, flag)
	res.note("window lat_tail_ms (p%g): %.5g", tailPct, tails)

	rows, err := s.checkSamples(ph.samples)
	res.Correct = err == nil && res.Failed == 0
	if err != nil {
		res.Failed++
		res.note("INCORRECT: %v", err)
	}
	res.note("checked %d sampled rows against the oracle up to generation %d", rows, s.oracle.cur)
	return res, nil
}
