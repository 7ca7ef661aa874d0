package netcluster_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// daemon is one running clusterd/clusterrouter process with its
// announced base URL.
type daemon struct {
	cmd  *exec.Cmd
	base string
	tail *strings.Builder
}

// startDaemon launches a binary and scans stderr for the "serving on
// http://..." announcement, draining the rest of the pipe in the
// background so the child never blocks on a full stderr.
func startDaemon(t *testing.T, name string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), name), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, tail: &strings.Builder{}}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stderr)
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		d.tail.WriteString(line + "\n")
		if i := strings.Index(line, "serving on http://"); i >= 0 {
			d.base = "http://" + strings.Fields(line[i+len("serving on http://"):])[0]
			break
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if d.base == "" {
		t.Fatalf("%s never announced its address:\n%s", name, d.tail.String())
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return d
}

// stopDaemon SIGTERMs the process and waits for a clean drain.
func stopDaemon(t *testing.T, d *daemon) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("daemon did not drain within 30s")
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		t.Fatalf("GET %s = %s: %s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func healthGen(t *testing.T, base string) uint64 {
	t.Helper()
	var h struct {
		Generation uint64 `json:"generation"`
	}
	getJSON(t, base+"/healthz", &h)
	return h.Generation
}

type wireBatch struct {
	Generation uint64 `json:"generation"`
	Results    []struct {
		Addr       string `json:"addr"`
		Clustered  bool   `json:"clustered"`
		Prefix     string `json:"prefix"`
		Kind       string `json:"kind"`
		Generation uint64 `json:"generation"`
	} `json:"results"`
}

type wireRouterBatch struct {
	Generation  uint64            `json:"generation"`
	Degradation map[string]string `json:"degradation"`
	Results     []struct {
		Addr       string `json:"addr"`
		Clustered  bool   `json:"clustered"`
		Prefix     string `json:"prefix"`
		Kind       string `json:"kind"`
		Generation uint64 `json:"generation"`
		Shard      int    `json:"shard"`
		Error      string `json:"error"`
	} `json:"results"`
}

func postBatch(t *testing.T, base string, body string, v any) {
	t.Helper()
	resp, err := http.Post(base+"/cluster", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		t.Fatalf("POST %s/cluster = %s: %s", base, resp.Status, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// routerAgrees fetches the same batch from the routed cluster and the
// compiler node inside one quiet churn window (all generations equal)
// and compares every answer. Returns false — without failing — when a
// swap landed mid-comparison; the caller retries.
func routerAgrees(t *testing.T, routerBase, compilerBase, body string) bool {
	t.Helper()
	g1 := healthGen(t, compilerBase)
	var routed wireRouterBatch
	postBatch(t, routerBase, body, &routed)
	var ref wireBatch
	postBatch(t, compilerBase, body, &ref)
	if len(routed.Degradation) != 0 {
		t.Fatalf("healthy cluster degraded: %v", routed.Degradation)
	}
	if ref.Generation != g1 || routed.Generation != g1 {
		return false // a swap landed mid-window; retry
	}
	if len(routed.Results) != len(ref.Results) {
		t.Fatalf("router returned %d results, compiler %d", len(routed.Results), len(ref.Results))
	}
	for i, rr := range routed.Results {
		if rr.Error != "" {
			t.Fatalf("row %d carries error %q in a healthy cluster", i, rr.Error)
		}
		if rr.Generation != g1 {
			return false // this row's shard was mid-catch-up; retry
		}
		want := ref.Results[i]
		if rr.Addr != want.Addr || rr.Clustered != want.Clustered ||
			rr.Prefix != want.Prefix || rr.Kind != want.Kind {
			t.Fatalf("row %d: router %+v != compiler %+v", i, rr, want)
		}
	}
	return true
}

// TestClusterDeploymentEquivalence stands up the deployable form of the
// sharded service — a compiler clusterd (-feed-serve), two shard
// clusterds (-feed, -shard-index), and a clusterrouter — and proves the
// routed answers match the compiler node's under live churn. It then
// drains one shard to a snapshot (-snapshot-out), warm-starts it from
// that file (-table-snapshot + -feed), and proves equivalence again —
// the whole restart cycle without ever recompiling a world.
func TestClusterDeploymentEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}

	compiler := startDaemon(t, "clusterd",
		"-addr", "127.0.0.1:0",
		"-ases", "150",
		"-seed", "3",
		"-churn-every", "150ms",
		"-mean-batch", "16",
		"-feed-serve")

	dir := t.TempDir()
	snapPath := filepath.Join(dir, "shard0.nct")
	shardArgs := func(i int) []string {
		return []string{
			"-addr", "127.0.0.1:0",
			"-feed", compiler.base,
			"-feed-poll", "50ms",
			"-shard-index", fmt.Sprint(i),
			"-shard-count", "2",
		}
	}
	shard0 := startDaemon(t, "clusterd", append(shardArgs(0), "-snapshot-out", snapPath)...)
	shard1 := startDaemon(t, "clusterd", shardArgs(1)...)
	router := startDaemon(t, "clusterrouter",
		"-addr", "127.0.0.1:0",
		"-shards", shard0.base+","+shard1.base)

	// A probe set straddling both shards (low and high /8 blocks) plus
	// guaranteed misses.
	var sb strings.Builder
	for _, a := range []string{
		"1.2.3.4", "12.65.147.94", "63.255.0.1", "64.0.0.1",
		"100.50.25.12", "128.9.160.27", "200.1.2.3", "255.254.253.252",
	} {
		sb.WriteString(a + "\n")
	}
	probes := sb.String()

	// Let churn move past the seed table, then find a quiet window where
	// the whole cluster stands at one generation and compare.
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	waitFor("churn to advance", func() bool { return healthGen(t, compiler.base) >= 3 })
	waitFor("cluster-wide equivalence", func() bool {
		return routerAgrees(t, router.base, compiler.base, probes)
	})

	// Drain shard 0: the snapshot plus its stream-position sidecar must
	// land on disk.
	addr0 := strings.TrimPrefix(shard0.base, "http://")
	stopDaemon(t, shard0)
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if _, err := os.Stat(snapPath + ".meta"); err != nil {
		t.Fatalf("snapshot sidecar not written: %v", err)
	}

	// Warm-start it on the same address from the saved table (the
	// router's map still points there). The feed has moved on meanwhile,
	// so the node catches up from its sidecar position (or resyncs) —
	// either way the router must agree again.
	startDaemon(t, "clusterd", append([]string{
		"-addr", addr0,
		"-table-snapshot", snapPath,
	}, shardArgs(0)[2:]...)...)
	waitFor("warm-started shard to rejoin", func() bool {
		return routerAgrees(t, router.base, compiler.base, probes)
	})
}

// restartBound is the longest a rolling warm restart may degrade one
// shard's answers: from its SIGTERM to the last batch that lost it.
const restartBound = 2 * time.Second

// TestClusterShardDrainUnderLoad is a rolling warm restart under load,
// the way a clusterd tunable changes. Clients keep routing batches
// through a clusterrouter while each shard clusterd in turn is SIGTERMed
// (writing -snapshot-out) and warm-started on its old address from that
// file (-table-snapshot), with a retuned -max-inflight. The router holds
// batch streams open to the shard. Those are hijacked connections, which
// http.Server.Shutdown neither waits for nor closes, so the drain has to
// end them itself: the node must exit promptly, not sit out its drain
// timeout, and no stream may be cut mid-frame into a row. Every routed
// batch is either complete and equal to the compiler node's answer, or
// names the restarting shard, and only it, and answers that shard's rows
// with the error. The other shard keeps answering /lookup and /healthz.
// Each shard's degraded window stays within restartBound, and clean
// batches resume after each restart.
func TestClusterShardDrainUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	// Churn is off: generation 0 answers every batch, so one reference
	// answer from the compiler node is the oracle for the whole run.
	compiler := startDaemon(t, "clusterd", "-addr", "127.0.0.1:0", "-ases", "150", "-seed", "3",
		"-churn-every", "0", "-feed-serve")
	dir := t.TempDir()
	snap := func(i int) string { return filepath.Join(dir, fmt.Sprintf("shard%d.nct", i)) }
	shardArgs := func(i int) []string {
		return []string{"-feed", compiler.base, "-feed-poll", "50ms",
			"-shard-index", fmt.Sprint(i), "-shard-count", "2", "-max-inflight", "64",
			"-snapshot-out", snap(i)}
	}
	shards := make([]*daemon, 2)
	for i := range shards {
		shards[i] = startDaemon(t, "clusterd", append([]string{"-addr", "127.0.0.1:0"}, shardArgs(i)...)...)
	}
	router := startDaemon(t, "clusterrouter", "-addr", "127.0.0.1:0", "-timeout", "2s",
		"-shards", shards[0].base+","+shards[1].base)

	var sb strings.Builder
	for i := 0; i < 512; i++ {
		fmt.Fprintf(&sb, "%d.%d.%d.%d\n", (i*37)%256, (i*11)%256, (i*7)%256, 1+i%250)
	}
	probes := sb.String()
	var ref wireBatch
	postBatch(t, compiler.base, probes, &ref)
	if len(ref.Results) != 512 || ref.Generation != 0 {
		t.Fatalf("reference: %d rows at generation %d", len(ref.Results), ref.Generation)
	}

	// restarting is the shard being restarted, -1 between restarts. A
	// batch may lose only the shard that was restarting when it was sent
	// or when it was answered.
	var restarting atomic.Int32
	restarting.Store(-1)
	var (
		mu           sync.Mutex
		lastDegraded [2]time.Time // when the latest batch that lost shard i was answered
	)

	// check holds one routed answer to the contract and returns the shard
	// it lost, or -1.
	check := func(out *wireRouterBatch, sent, answered int32) (lost int, err error) {
		if len(out.Results) != len(ref.Results) {
			return -1, fmt.Errorf("%d rows for %d addresses", len(out.Results), len(ref.Results))
		}
		lost = -1
		for k, why := range out.Degradation {
			i, err := strconv.Atoi(k)
			if err != nil || len(out.Degradation) > 1 || why == "" || i < 0 || (int32(i) != sent && int32(i) != answered) {
				return -1, fmt.Errorf("degradation %v while shard %d (sent) / %d (answered) was restarting", out.Degradation, sent, answered)
			}
			lost = i
		}
		for i, r := range out.Results {
			want := ref.Results[i]
			switch {
			case r.Shard == lost:
				if r.Error != out.Degradation[strconv.Itoa(lost)] || r.Clustered || r.Prefix != "" || r.Addr != want.Addr {
					return -1, fmt.Errorf("row %d of the lost shard: %+v", i, r)
				}
			case r.Error != "" || r.Addr != want.Addr || r.Clustered != want.Clustered ||
				r.Prefix != want.Prefix || r.Kind != want.Kind || r.Generation != 0:
				return -1, fmt.Errorf("row %d: router %+v != compiler %+v", i, r, want)
			}
		}
		return lost, nil
	}

	var clean, degraded atomic.Int64
	stop := make(chan struct{})
	failed := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sent := restarting.Load()
				resp, err := http.Post(router.base+"/cluster", "text/plain", strings.NewReader(probes))
				if err == nil {
					var out wireRouterBatch
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("POST /cluster = %s", resp.Status)
					} else if err = json.NewDecoder(resp.Body).Decode(&out); err == nil {
						var lost int
						if lost, err = check(&out, sent, restarting.Load()); lost >= 0 {
							mu.Lock()
							lastDegraded[lost] = time.Now()
							mu.Unlock()
							degraded.Add(1)
						} else if err == nil {
							clean.Add(1)
						}
					}
					resp.Body.Close()
				}
				if err != nil {
					select {
					case failed <- err:
					default:
					}
					return
				}
			}
		}()
	}
	waitCount := func(what string, n *atomic.Int64, min int64) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for n.Load() < min {
			select {
			case err := <-failed:
				close(stop)
				wg.Wait()
				t.Fatal(err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s (clean %d, degraded %d)", what, clean.Load(), degraded.Load())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitCount("clean batches on warm streams", &clean, 200)

	// Shard 1, then shard 0: drain to the snapshot, then warm-start on the
	// same address (the router's map still points there) with a retuned
	// admission cap, and wait for clean batches through the new process.
	var (
		sigterm                   [2]time.Time
		phaseClean, phaseDegraded [2]int64
	)
	for _, i := range []int{1, 0} {
		addr := strings.TrimPrefix(shards[i].base, "http://")
		clean0, degraded0 := clean.Load(), degraded.Load()
		restarting.Store(int32(i))
		sigterm[i] = time.Now()
		stopDaemon(t, shards[i])
		if took := time.Since(sigterm[i]); took > 5*time.Second {
			t.Fatalf("shard %d took %v to drain under load; the drain timeout is 10s", i, took)
		}
		// The other shard serves on under the load meanwhile.
		live := shards[1-i].base
		var lk struct{ Addr string }
		if getJSON(t, live+"/lookup?addr=12.65.147.94", &lk); lk.Addr != "12.65.147.94" || healthGen(t, live) != 0 {
			t.Fatalf("shard %d during shard %d's restart: /lookup answered %+v", 1-i, i, lk)
		}
		shards[i] = startDaemon(t, "clusterd", append(append([]string{"-addr", addr, "-table-snapshot", snap(i)},
			shardArgs(i)...), "-max-inflight", "32")...)
		waitCount(fmt.Sprintf("clean batches after shard %d's restart", i), &clean, clean.Load()+50)
		restarting.Store(-1)
		phaseClean[i], phaseDegraded[i] = clean.Load()-clean0, degraded.Load()-degraded0
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-failed:
		t.Fatal(err)
	default:
	}
	for _, i := range []int{1, 0} {
		var window time.Duration
		if last := lastDegraded[i]; last.After(sigterm[i]) {
			window = last.Sub(sigterm[i])
		}
		t.Logf("shard %d: degraded window %v; %d degraded and %d clean batches from SIGTERM to resumed clean answers",
			i, window, phaseDegraded[i], phaseClean[i])
		if window > restartBound {
			t.Errorf("shard %d degraded answers for %v after its SIGTERM, bound %v", i, window, restartBound)
		}
	}
	t.Logf("%d clean batches, %d degraded", clean.Load(), degraded.Load())
}
