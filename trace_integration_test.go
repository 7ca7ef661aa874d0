package netcluster_test

// Integration tests of the tracing surface: a live clusterd must serve
// parseable Prometheus text exposition on /metrics with histogram buckets
// and derived quantiles; clusterctl -trace-out must round-trip a valid
// Chrome trace_event file showing the parallel shard fan-out; and
// clusterd -metrics-out must flush a JSON snapshot on SIGINT. Binaries
// come from the shared buildTools cache (see cmd_integration_test.go).

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/netaware/netcluster/internal/obsv"
)

// startWithLines launches a binary with a stderr line feed and a
// kill-on-cleanup guard. Callers sequence on the announce lines.
func startWithLines(t *testing.T, name string, args ...string) (*exec.Cmd, <-chan string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), name), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	return cmd, lines
}

// awaitLine consumes the stderr feed until a line containing substr
// appears, failing the test after ten seconds.
func awaitLine(t *testing.T, lines <-chan string, substr string) string {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("process exited before printing %q", substr)
			}
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			t.Fatalf("timed out waiting for the process to print %q", substr)
		}
	}
}

// httpGetRetry polls url until the listener accepts, then returns the body.
func httpGetRetry(t *testing.T, url string) (string, http.Header) {
	t.Helper()
	var lastErr error
	for i := 0; i < 50; i++ {
		resp, err := http.Get(url)
		if err != nil {
			lastErr = err
			time.Sleep(100 * time.Millisecond)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header
	}
	t.Fatalf("GET %s never succeeded: %v", url, lastErr)
	return "", nil
}

// parsePrometheusText structurally validates a text-format 0.0.4 payload:
// every non-comment line is `name[{labels}] value`, every family carries
// exactly one TYPE declaration, and no series repeats. Returns series
// keyed by name+labels with their parsed values.
func parsePrometheusText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	series := map[string]float64{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE comment: %q", ln+1, line)
			}
			if _, dup := types[fields[2]]; dup {
				t.Errorf("line %d: duplicate TYPE declaration for %s", ln+1, fields[2])
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: not a series line: %q", ln+1, line)
		}
		key, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %d: unparseable sample value %q: %v", ln+1, val, err)
		}
		if _, dup := series[key]; dup {
			t.Errorf("line %d: duplicate series %q", ln+1, key)
		}
		series[key] = v

		// Every series must belong to a declared family: exact name, or
		// the histogram base after stripping _bucket/_sum/_count.
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if _, ok := types[name]; ok {
			continue
		}
		declared := false
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, found := strings.CutSuffix(name, suf); found {
				if _, ok := types[base]; ok {
					declared = true
				}
				break
			}
		}
		if !declared {
			t.Errorf("line %d: series %s has no TYPE declaration", ln+1, name)
		}
	}
	return series
}

func TestClusterdPrometheusScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	d := startDaemon(t, "clusterd", "-addr", "127.0.0.1:0", "-ases", "150", "-seed", "3",
		"-churn-every", "0")

	// The debug routes answer beside the serving routes.
	for _, route := range []string{"/debug/pprof/", "/debug/vars"} {
		httpGetRetry(t, d.base+route)
	}

	// Drive traffic, one request traced so the flight recorder holds its
	// span whatever the sampling: request counters and the
	// clusterd.lookup span histogram get samples.
	for i := 0; i < 4; i++ {
		req, err := http.NewRequest("GET", d.base+"/lookup?addr=110.218.246.197", nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			req.Header.Set(obsv.TraceHeader, "00-0000000000000000000000000000abcd-0000000000000001-01")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"addr":"110.218.246.197"`) {
			t.Fatalf("/lookup = %s: %s", resp.Status, body)
		}
	}

	body, hdr := httpGetRetry(t, d.base+"/metrics")
	if ct := hdr.Get("Content-Type"); ct != obsv.PrometheusContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, obsv.PrometheusContentType)
	}
	series := parsePrometheusText(t, body)

	if series["netcluster_clusterd_lookups_total"] == 0 {
		t.Error("netcluster_clusterd_lookups_total is zero after driving requests")
	}
	if series["netcluster_clusterd_lookup_count_total"] == 0 {
		t.Error("netcluster_clusterd_lookup_count_total is zero after driving requests")
	}
	var buckets, p99s, inf int
	for key := range series {
		if strings.Contains(key, "_bucket{le=") {
			buckets++
			if strings.Contains(key, `le="+Inf"`) {
				inf++
			}
		}
		if strings.HasSuffix(key, "_p99") {
			p99s++
		}
	}
	if buckets == 0 || inf == 0 {
		t.Errorf("exposition lacks histogram buckets (%d buckets, %d +Inf)", buckets, inf)
	}
	if p99s == 0 {
		t.Error("exposition lacks derived _p99 quantile gauges")
	}
	// The request span histogram specifically must have samples.
	if series["netcluster_clusterd_lookup_ns_count"] == 0 {
		t.Error("clusterd.lookup span histogram has no samples")
	}

	// The same process must also serve its flight recorder as a valid
	// Chrome trace.
	trace, _ := httpGetRetry(t, d.base+"/debug/trace")
	if _, err := obsv.ValidateChromeTrace([]byte(trace)); err != nil {
		t.Errorf("/debug/trace payload invalid: %v", err)
	}
}

func TestClusterctlTraceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	dir := t.TempDir()

	logOut, _ := run(t, "loggen", "-profile", "Nagano", "-scale", "0.005", "-seed", "3")
	logPath := filepath.Join(dir, "nagano.log")
	if err := os.WriteFile(logPath, []byte(logOut), 0o644); err != nil {
		t.Fatal(err)
	}
	tablesDir := filepath.Join(dir, "tables")
	if err := os.Mkdir(tablesDir, 0o755); err != nil {
		t.Fatal(err)
	}
	run(t, "bgpgen", "-all", "-dir", tablesDir, "-scale", "0.005", "-seed", "3")

	tracePath := filepath.Join(dir, "trace.json")
	run(t, "clusterctl",
		"-log", logPath,
		"-table", filepath.Join(tablesDir, "oregon.txt"),
		"-table", filepath.Join(tablesDir, "att-bgp.txt"),
		"-stream", "-workers", "4",
		"-trace-out", tracePath,
		"-top", "3")

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("clusterctl -trace-out wrote nothing: %v", err)
	}
	n, err := obsv.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("trace file fails Chrome trace_event validation: %v", err)
	}
	if n == 0 {
		t.Fatal("trace file holds no events")
	}

	// The acceptance criterion: the parallel fan-out is visible — a
	// worker lane per parse worker under the run root, beside the compile.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name]++
		}
	}
	for _, want := range []string{"clusterctl.run", "bgp.compile", "cluster.stream", "weblog.stream"} {
		if names[want] == 0 {
			t.Errorf("trace lacks a %q span (got %v)", want, names)
		}
	}
	// The 8 MB log spans several chunks; workers are capped at the
	// processors the run has.
	if want := min(4, runtime.NumCPU()); names["weblog.stream.worker"] != want {
		t.Errorf("trace shows %d worker spans, want %d for -workers 4", names["weblog.stream.worker"], want)
	}

	// The standalone checker agrees.
	out, _ := run(t, "tracecheck", tracePath)
	if !strings.Contains(out, "ok, ") {
		t.Errorf("tracecheck output: %q", out)
	}
}

func TestClusterdMetricsOutOnSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	outPath := filepath.Join(t.TempDir(), "metrics.json")
	cmd, lines := startWithLines(t, "clusterd", "-addr", "127.0.0.1:0", "-ases", "150", "-seed", "3",
		"-churn-every", "0", "-metrics-out", outPath)

	_, addr, _ := strings.Cut(awaitLine(t, lines, "serving on http://"), "serving on http://")
	base := "http://" + strings.Fields(addr)[0]
	httpGetRetry(t, base+"/lookup?addr=110.218.246.197")

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	awaitLine(t, lines, "metrics snapshot written to")
	if err := cmd.Wait(); err != nil {
		t.Fatalf("clusterd did not exit cleanly after SIGINT: %v", err)
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("-metrics-out snapshot missing: %v", err)
	}
	var snap metricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-metrics-out snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["clusterd.lookups"] == 0 {
		t.Error("shutdown snapshot lost the request counter")
	}
}
