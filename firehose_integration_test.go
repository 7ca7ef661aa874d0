package netcluster_test

// End-to-end firehose test: a real loadgen process replays a seeded
// synthetic workload against a real clusterd process, and the busy-
// cluster accounting that every batch feeds must agree with what the
// generator sent — totals exact, top-K consistent, accounting gauges
// exported.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type loadgenSummary struct {
	Sent        int     `json:"sent"`
	Clustered   int     `json:"clustered"`
	Unclustered int     `json:"unclustered"`
	Batches     int     `json:"batches"`
	Rejected    int     `json:"rejected"`
	Failed      int     `json:"failed"`
	IntendedP99 int64   `json:"intended_p99_ns"`
	ServiceP99  int64   `json:"service_p99_ns"`
	MaxDrift    int64   `json:"max_drift_ns"`
	Achieved    float64 `json:"achieved_rate"`
}

type busyReport struct {
	K           int    `json:"k"`
	Requests    uint64 `json:"requests"`
	Unclustered uint64 `json:"unclustered"`
	Occupancy   int    `json:"occupancy"`
	Guaranteed  bool   `json:"guaranteed_top_k"`
	Clusters    []struct {
		Prefix   string `json:"prefix"`
		Requests uint64 `json:"requests"`
		Exact    bool   `json:"exact"`
	} `json:"clusters"`
}

func TestFirehoseLoadgenAgainstClusterd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	tools := buildTools(t)

	cmd := exec.Command(filepath.Join(tools, "clusterd"),
		"-addr", "127.0.0.1:0",
		"-ases", "150",
		"-seed", "3",
		"-churn-every", "0", // a frozen table makes the accounting exactly checkable
		"-busy-k", "10",
		"-busy-capacity", "4096",
		"-max-inflight", "64") // headroom over loadgen's concurrency: slot release lags the response
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

	// Replay 20k addresses of the Nagano profile over the same world
	// seed the server booted with, fast and with ample concurrency.
	const want = 20000
	lg := exec.Command(filepath.Join(tools, "loadgen"),
		"-target", base,
		"-rate", "100000",
		"-batch", "250",
		"-requests", "20000",
		"-concurrency", "32",
		"-profile", "nagano",
		"-scale", "0.01",
		"-seed", "3",
		"-ases", "150",
		"-json")
	out, err := lg.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("loadgen failed: %v\nstderr: %s", err, ee.Stderr)
		}
		t.Fatal(err)
	}
	var sum loadgenSummary
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatalf("loadgen summary not JSON: %v\n%s", err, out)
	}
	if sum.Sent != want || sum.Failed != 0 || sum.Rejected != 0 {
		t.Fatalf("loadgen summary off: %+v", sum)
	}
	if sum.Clustered+sum.Unclustered != want {
		t.Fatalf("loadgen accounted %d of %d addresses", sum.Clustered+sum.Unclustered, want)
	}
	if sum.Clustered == 0 {
		t.Fatal("nothing clustered: loadgen and clusterd worlds diverged")
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return body
	}

	// /busy must agree with the loadgen's client-side accounting.
	var busy busyReport
	if err := json.Unmarshal(get("/busy"), &busy); err != nil {
		t.Fatal(err)
	}
	if busy.Requests != want || busy.Unclustered != uint64(sum.Unclustered) {
		t.Fatalf("/busy saw %d requests (%d unclustered), loadgen sent %d (%d unclustered)",
			busy.Requests, busy.Unclustered, want, sum.Unclustered)
	}
	if len(busy.Clusters) == 0 || !busy.Guaranteed {
		t.Fatalf("/busy top-K not guaranteed: %+v", busy)
	}
	var topSum uint64
	for i, c := range busy.Clusters {
		if !c.Exact {
			t.Fatalf("busy cluster %d (%s) not exact with 4096 capacity", i, c.Prefix)
		}
		if i > 0 && c.Requests > busy.Clusters[i-1].Requests {
			t.Fatalf("busy clusters not sorted: %d after %d", c.Requests, busy.Clusters[i-1].Requests)
		}
		topSum += c.Requests
	}
	if topSum > uint64(sum.Clustered) {
		t.Fatalf("top-%d requests sum %d exceeds clustered total %d", busy.K, topSum, sum.Clustered)
	}

	// ?k= override and validation.
	var busy3 busyReport
	if err := json.Unmarshal(get("/busy?k=3"), &busy3); err != nil {
		t.Fatal(err)
	}
	if len(busy3.Clusters) != 3 {
		t.Fatalf("/busy?k=3 returned %d clusters", len(busy3.Clusters))
	}
	if resp, err := http.Get(base + "/busy?k=zero"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/busy?k=zero answered %d, want 400", resp.StatusCode)
		}
	}

	// The accounting observability series made it to the exporter, and the
	// serving path actually feeds them: the records counter must equal
	// the replayed total, not merely exist (a presence check once hid a
	// counter stuck at zero).
	metrics := string(get("/metrics"))
	for _, series := range []string{
		"netcluster_cluster_bounded_records_total",
		"netcluster_cluster_bounded_occupancy",
		"netcluster_cluster_bounded_footprint_bytes",
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("metrics exposition missing %s:\n%.500s", series, metrics)
		}
	}
	wantRecords := fmt.Sprintf("netcluster_cluster_bounded_records_total %d", sum.Sent)
	if !strings.Contains(metrics, wantRecords) {
		t.Fatalf("metrics exposition lacks %q — the serving path is not flushing the records counter", wantRecords)
	}
}
