package netcluster_test

// Integration tests of the observability surface: clusterd's debug
// routes must serve parseable /debug/vars including the netcluster
// metric registry, and the batch tools' -metrics-out snapshots must
// carry nonzero counters from the paths they exercised. Binaries come
// from the shared buildTools cache (see cmd_integration_test.go).

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// metricsSnapshot mirrors obsv.Snapshot's JSON for decoding test output.
type metricsSnapshot struct {
	Counters   map[string]uint64 `json:"counters"`
	Gauges     map[string]int64  `json:"gauges"`
	Histograms map[string]struct {
		Count uint64 `json:"count"`
		Sum   int64  `json:"sum"`
	} `json:"histograms"`
}

func TestClusterdMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	d := startDaemon(t, "clusterd", "-addr", "127.0.0.1:0", "-ases", "150", "-seed", "3",
		"-churn-every", "0")

	// /debug/vars must be parseable JSON carrying the netcluster registry.
	body, _ := httpGetRetry(t, d.base+"/debug/vars")
	var vars struct {
		Netcluster metricsSnapshot `json:"netcluster"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not parseable JSON: %v", err)
	}
	if vars.Netcluster.Counters == nil {
		t.Fatal("/debug/vars lacks the netcluster metric registry")
	}
}

func TestExperimentsMetricsOut(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	out := filepath.Join(t.TempDir(), "metrics.json")
	// The perf experiment drives every instrumented engine: compiled
	// lookups, in-memory and one-pass clustering, sequential and parallel,
	// and the strict-parser fallback demonstration.
	run(t, "experiments", "-scale", "0.02", "-metrics-out", out, "perf")
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap metricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-metrics-out snapshot is not valid JSON: %v", err)
	}
	for _, c := range []string{
		"bgp.lookup.count",
		"weblog.parse.fast",
		"weblog.parse.strict",
		"cluster.stream.records",
	} {
		if snap.Counters[c] == 0 {
			t.Errorf("counter %q is zero in the perf snapshot", c)
		}
	}
	if snap.Histograms["bgp.lookup.depth"].Count == 0 {
		t.Error("lookup-depth histogram is empty despite sampled lookups")
	}
}

func TestBenchdiffGate(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	dir := t.TempDir()
	oldRec := `{"benchmarks":[
		{"name":"BenchmarkLongestPrefixMatchCompiled","iterations":1,"ns_per_op":10,"allocs_per_op":0},
		{"name":"BenchmarkCLFParseStream","iterations":1,"ns_per_op":1000,"allocs_per_op":100}]}`
	okRec := `{"benchmarks":[
		{"name":"BenchmarkLongestPrefixMatchCompiled","iterations":1,"ns_per_op":11,"allocs_per_op":0},
		{"name":"BenchmarkCLFParseStream","iterations":1,"ns_per_op":1100,"allocs_per_op":100}]}`
	badRec := `{"benchmarks":[
		{"name":"BenchmarkLongestPrefixMatchCompiled","iterations":1,"ns_per_op":20,"allocs_per_op":0},
		{"name":"BenchmarkCLFParseStream","iterations":1,"ns_per_op":1000,"allocs_per_op":100}]}`
	oldPath := filepath.Join(dir, "old.json")
	okPath := filepath.Join(dir, "ok.json")
	badPath := filepath.Join(dir, "bad.json")
	for path, content := range map[string]string{oldPath: oldRec, okPath: okRec, badPath: badRec} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Within threshold: exits zero.
	run(t, "benchdiff", "-old", oldPath, "-new", okPath)
	// A 2x ns/op regression on a gated row must fail.
	cmd := exec.Command(filepath.Join(buildTools(t), "benchdiff"), "-old", oldPath, "-new", badPath)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("benchdiff accepted a 2x regression:\n%s", out)
	}
	if !strings.Contains(string(out), "FAIL") {
		t.Errorf("benchdiff failure output lacks FAIL marker:\n%s", out)
	}
}
