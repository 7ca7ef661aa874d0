package netcluster_test

// Integration test of the clusterd service: start it on an ephemeral
// port with fast synthetic churn, exercise every endpoint, watch the
// table generation advance across swaps, and verify a SIGTERM drain
// exits cleanly and writes the metrics snapshot.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

type clusterdLookup struct {
	Addr       string `json:"addr"`
	Clustered  bool   `json:"clustered"`
	Prefix     string `json:"prefix"`
	Kind       string `json:"kind"`
	Generation uint64 `json:"generation"`
}

type clusterdHealth struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Prefixes   int    `json:"prefixes"`
}

func TestClusterdServiceLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")

	cmd := exec.Command(filepath.Join(buildTools(t), "clusterd"),
		"-addr", "127.0.0.1:0",
		"-ases", "150",
		"-seed", "3",
		"-churn-every", "150ms",
		"-metrics-out", metricsPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Parse the announced address off stderr, then keep draining the pipe
	// so swap logging never blocks the service.
	sc := bufio.NewScanner(stderr)
	base := ""
	var stderrTail strings.Builder
	for sc.Scan() {
		line := sc.Text()
		stderrTail.WriteString(line + "\n")
		if i := strings.Index(line, "serving on http://"); i >= 0 {
			base = "http://" + strings.Fields(line[i+len("serving on http://"):])[0]
			break
		}
	}
	if base == "" {
		t.Fatalf("clusterd never announced its address:\n%s", stderrTail.String())
	}
	drained := make(chan string, 1)
	go func() {
		var rest strings.Builder
		for sc.Scan() {
			rest.WriteString(sc.Text() + "\n")
		}
		drained <- rest.String()
	}()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	// Health: a live table with prefixes.
	var health clusterdHealth
	if _, body := get("/healthz"); json.Unmarshal(body, &health) != nil || health.Status != "ok" {
		t.Fatalf("healthz: %s", body)
	}
	if health.Prefixes == 0 {
		t.Fatal("healthz reports an empty table")
	}

	// Lookup: valid address answers (clustered or not), bad address 400s.
	var lk clusterdLookup
	if resp, body := get("/lookup?addr=12.65.147.94"); resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup status %d: %s", resp.StatusCode, body)
	} else if err := json.Unmarshal(body, &lk); err != nil || lk.Addr != "12.65.147.94" {
		t.Fatalf("lookup body: %s (%v)", body, err)
	}
	if resp, _ := get("/lookup?addr=not-an-ip"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad lookup returned %d, want 400", resp.StatusCode)
	}

	// Batch: every line answered, generation pinned across the batch.
	batchBody := "12.65.147.94\n10.1.2.3\n\n4.4.4.4\n"
	resp, err := http.Post(base+"/cluster", "text/plain", strings.NewReader(batchBody))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var batch struct {
		Generation uint64           `json:"generation"`
		Results    []clusterdLookup `json:"results"`
	}
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatalf("batch body: %s (%v)", raw, err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("batch answered %d addresses, want 3 (blank lines skipped)", len(batch.Results))
	}
	for _, r := range batch.Results {
		if r.Generation != batch.Generation {
			t.Fatalf("mixed generations in one batch: %d vs %d", r.Generation, batch.Generation)
		}
	}

	// GET on the batch endpoint is rejected.
	if resp, _ := get("/cluster"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /cluster returned %d, want 405", resp.StatusCode)
	}

	// Metrics: Prometheus exposition includes the churn and service series.
	if _, body := get("/metrics"); !strings.Contains(string(body), "netcluster_churn_generation") ||
		!strings.Contains(string(body), "netcluster_clusterd_lookups_total") {
		t.Fatalf("metrics exposition missing expected series:\n%.500s", body)
	}

	// Generation advances: with -churn-every 150ms two polls 600ms apart
	// must observe progress.
	gen0 := health.Generation
	deadline := time.Now().Add(10 * time.Second)
	advanced := false
	for time.Now().Before(deadline) {
		time.Sleep(200 * time.Millisecond)
		var h clusterdHealth
		_, body := get("/healthz")
		if json.Unmarshal(body, &h) == nil && h.Generation > gen0 {
			advanced = true
			break
		}
	}
	if !advanced {
		t.Fatal("table generation never advanced under churn")
	}

	// SIGTERM: clean exit, drain logged, metrics snapshot written. The
	// stderr tail must be collected before cmd.Wait: Wait closes the pipe
	// once the child exits, racing the scanner out of the final drain
	// lines. EOF on the pipe implies the child has exited, so waiting for
	// the tail first loses nothing.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var tail string
	select {
	case tail = <-drained:
	case <-time.After(15 * time.Second):
		t.Fatal("clusterd did not exit within 15s of SIGTERM")
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("clusterd exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("clusterd did not exit within 15s of SIGTERM")
	}
	if !strings.Contains(tail, "draining") || !strings.Contains(tail, "drained at generation") {
		t.Errorf("drain log missing:\n%s", tail)
	}
	snap, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(snap, &metrics); err != nil {
		t.Fatalf("metrics snapshot not JSON: %v\n%.300s", err, snap)
	}
	if metrics.Counters["churn.swaps"] == 0 {
		t.Errorf("snapshot records no swaps: %v", metrics.Counters)
	}
	if metrics.Counters["clusterd.lookups"] == 0 {
		t.Errorf("snapshot records no lookups: %v", metrics.Counters)
	}
}

func TestClusterdBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	// One inflight slot: hold it with a slow streaming batch and verify a
	// concurrent batch gets 503 + Retry-After instead of queueing.
	cmd := exec.Command(filepath.Join(buildTools(t), "clusterd"),
		"-addr", "127.0.0.1:0",
		"-ases", "120",
		"-seed", "5",
		"-churn-every", "0",
		"-max-inflight", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	sc := bufio.NewScanner(stderr)
	base := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "serving on http://"); i >= 0 {
			base = "http://" + strings.Fields(line[i+len("serving on http://"):])[0]
			break
		}
	}
	if base == "" {
		t.Fatal("clusterd never announced its address")
	}
	go func() {
		for sc.Scan() {
		}
	}()

	// Occupy the single slot with a slow streaming body, then probe.
	slowBody, slowWriter := io.Pipe()
	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/cluster", "text/plain", slowBody)
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		slowDone <- err
	}()
	slowWriter.Write([]byte("10.0.0.1\n"))
	// The write returns once the client's transport has the bytes, which
	// can be before the server has admitted the request: wait until the
	// slot is seen taken, or the first probe below can win it instead.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var snap struct {
			Gauges map[string]int64 `json:"gauges"`
		}
		getJSON(t, base+"/metrics.json", &snap)
		if snap.Gauges["clusterd.batch.inflight"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the slow batch never took the slot")
		}
	}

	// The slot is held until we close the writer; a concurrent batch must
	// be rejected with 503 + Retry-After.
	got503 := false
	for attempt := 0; attempt < 100 && !got503; attempt++ {
		resp, err := http.Post(base+"/cluster", "text/plain", strings.NewReader("10.0.0.2\n"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
			got503 = true
		}
		time.Sleep(20 * time.Millisecond)
	}
	slowWriter.Close()
	if err := <-slowDone; err != nil {
		t.Fatalf("slow batch failed: %v", err)
	}
	if !got503 {
		t.Fatal("backpressure never rejected a concurrent batch")
	}

	// After the slot frees, batches succeed again.
	var ok bool
	for attempt := 0; attempt < 50; attempt++ {
		resp, err := http.Post(base+"/cluster", "text/plain", strings.NewReader("10.0.0.3\n"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			ok = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !ok {
		t.Fatal("batches still rejected after the inflight slot freed")
	}
}

// TestClusterdIgnoresSinkDir starts clusterd with exactly the arguments
// the repo benchmark passes for its single-node workload. -sink-dir still
// parses, but nothing reads it: the node serves and writes nothing there.
func TestClusterdIgnoresSinkDir(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	root := t.TempDir()
	d := startDaemon(t, "clusterd",
		"-addr", "127.0.0.1:0",
		"-sink-dir", filepath.Join(root, "sinks-1"),
		"-ases", "10000", "-seed", "1", "-churn-every", "0")
	var got clusterdLookup
	getJSON(t, d.base+"/lookup?addr=12.65.147.94", &got)
	if got.Addr != "12.65.147.94" {
		t.Fatalf("/lookup answered %+v", got)
	}
	stopDaemon(t, d)
	if ents, err := os.ReadDir(root); err != nil || len(ents) != 0 {
		t.Fatalf("-sink-dir's parent holds %v (err %v), want nothing", ents, err)
	}
}
