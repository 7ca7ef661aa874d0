package netcluster_test

// Integration tests of the tracing surface: a live pcvproxy must serve
// parseable Prometheus text exposition on /metrics with histogram buckets
// and derived quantiles; clusterctl -trace-out must round-trip a valid
// Chrome trace_event file showing the parallel shard fan-out; and
// pcvproxy -metrics-out must flush a JSON snapshot on SIGINT. Binaries
// come from the shared buildTools cache (see cmd_integration_test.go).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// startPcvproxy launches the proxy binary with a stderr line feed and a
// kill-on-cleanup guard. Callers sequence on the announce lines.
func startPcvproxy(t *testing.T, args ...string) (*exec.Cmd, <-chan string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), "pcvproxy"), args...)
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
				t.Fatalf("pcvproxy exited before printing %q", substr)
			}
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			t.Fatalf("timed out waiting for pcvproxy to print %q", substr)
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

func TestPcvproxyPrometheusScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Last-Modified", "Mon, 02 Jan 2006 15:04:05 GMT")
		fmt.Fprint(w, "origin body")
	}))
	defer origin.Close()

	_, lines := startPcvproxy(t,
		"-origin", origin.URL,
		"-listen", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0")

	metricsLine := awaitLine(t, lines, "metrics on ")
	metricsURL := strings.TrimSpace(strings.TrimPrefix(metricsLine, "pcvproxy: metrics on "))
	debugBase := strings.TrimSuffix(metricsURL, "/debug/vars")

	routes := awaitLine(t, lines, "debug routes:")
	for _, want := range []string{"/metrics", "/debug/trace", "/debug/pprof", "/debug/vars"} {
		if !strings.Contains(routes, want) {
			t.Errorf("debug-route banner missing %s: %q", want, routes)
		}
	}

	cachingLine := awaitLine(t, lines, "caching ")
	fields := strings.Fields(cachingLine) // "pcvproxy: caching <origin> on <addr> ..."
	var proxyAddr string
	for i, f := range fields {
		if f == "on" && i+1 < len(fields) {
			proxyAddr = fields[i+1]
		}
	}
	if proxyAddr == "" {
		t.Fatalf("cannot find proxy address in %q", cachingLine)
	}

	// Drive traffic: a miss then hits on the same key, so request counters
	// and the httpproxy.request duration histogram have samples.
	for i := 0; i < 4; i++ {
		body, _ := httpGetRetry(t, "http://"+proxyAddr+"/page.html")
		if body != "origin body" {
			t.Fatalf("proxy returned %q", body)
		}
	}

	body, hdr := httpGetRetry(t, debugBase+"/metrics")
	if ct := hdr.Get("Content-Type"); ct != obsv.PrometheusContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, obsv.PrometheusContentType)
	}
	series := parsePrometheusText(t, body)

	if series["netcluster_httpproxy_requests_total"] == 0 {
		t.Error("netcluster_httpproxy_requests_total is zero after driving requests")
	}
	if series["netcluster_httpproxy_hits_total"] == 0 {
		t.Error("netcluster_httpproxy_hits_total is zero after repeat requests")
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
	if series["netcluster_httpproxy_request_ns_count"] == 0 {
		t.Error("httpproxy.request span histogram has no samples")
	}

	// The same process must also serve its flight recorder as a valid
	// Chrome trace.
	trace, _ := httpGetRetry(t, debugBase+"/debug/trace")
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

func TestPcvproxyMetricsOutOnSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "body")
	}))
	defer origin.Close()

	outPath := filepath.Join(t.TempDir(), "metrics.json")
	cmd, lines := startPcvproxy(t,
		"-origin", origin.URL,
		"-listen", "127.0.0.1:0",
		"-metrics-out", outPath)

	cachingLine := awaitLine(t, lines, "caching ")
	fields := strings.Fields(cachingLine)
	var proxyAddr string
	for i, f := range fields {
		if f == "on" && i+1 < len(fields) {
			proxyAddr = fields[i+1]
		}
	}
	if proxyAddr == "" {
		t.Fatalf("cannot find proxy address in %q", cachingLine)
	}
	httpGetRetry(t, "http://"+proxyAddr+"/x")

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	awaitLine(t, lines, "metrics snapshot written to")
	if err := cmd.Wait(); err != nil {
		t.Fatalf("pcvproxy did not exit cleanly after SIGINT: %v", err)
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("-metrics-out snapshot missing: %v", err)
	}
	var snap metricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-metrics-out snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["httpproxy.requests"] == 0 {
		t.Error("shutdown snapshot lost the request counter")
	}
}
