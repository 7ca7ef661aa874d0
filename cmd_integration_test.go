package netcluster_test

// End-to-end integration tests of the command-line tools: loggen and
// bgpgen generate mutually consistent artifacts, clusterctl consumes them,
// and the experiments driver regenerates a figure. The binaries are built
// once into a shared temp dir. These tests exercise the same code paths a
// user's shell session would.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/netaware/netcluster/internal/bgp"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "netcluster-tools-*")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", buildDir,
			"./cmd/loggen", "./cmd/bgpgen", "./cmd/clusterctl", "./cmd/experiments",
			"./cmd/worldgen", "./cmd/tabletool", "./cmd/benchdiff",
			"./cmd/tracecheck", "./cmd/clusterd", "./cmd/clusterrouter", "./cmd/loadgen")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = err
			buildDir = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v (%s)", buildErr, buildDir)
	}
	return buildDir
}

func run(t *testing.T, name string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), name), args...)
	var so, se strings.Builder
	cmd.Stdout = &so
	cmd.Stderr = &se
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", name, args, err, se.String())
	}
	return so.String(), se.String()
}

func TestToolchainEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	dir := t.TempDir()

	// 1. Generate a log and the matching routing tables.
	logOut, logErr := run(t, "loggen", "-profile", "Nagano", "-scale", "0.005", "-seed", "3")
	if !strings.Contains(logErr, "requests") {
		t.Fatalf("loggen stderr missing summary: %q", logErr)
	}
	logPath := filepath.Join(dir, "nagano.log")
	if err := os.WriteFile(logPath, []byte(logOut), 0o644); err != nil {
		t.Fatal(err)
	}
	tablesDir := filepath.Join(dir, "tables")
	if err := os.Mkdir(tablesDir, 0o755); err != nil {
		t.Fatal(err)
	}
	_, genErr := run(t, "bgpgen", "-all", "-dir", tablesDir, "-scale", "0.005", "-seed", "3")
	if !strings.Contains(genErr, "wrote 14 snapshots") {
		t.Fatalf("bgpgen stderr: %q", genErr)
	}

	// 2. Cluster the log against a few of the tables.
	out, _ := run(t, "clusterctl",
		"-log", logPath,
		"-table", filepath.Join(tablesDir, "oregon.txt"),
		"-table", filepath.Join(tablesDir, "att-bgp.txt"),
		"-table", filepath.Join(tablesDir, "arin.txt"),
		"-top", "5")
	for _, want := range []string{"merged table:", "clusters:", "coverage", "clusters by request volume"} {
		if !strings.Contains(out, want) {
			t.Errorf("clusterctl output missing %q:\n%s", want, out)
		}
	}
	// Coverage against a high-visibility table subset must be high.
	if strings.Contains(out, "clusters: 0 ") {
		t.Error("clusterctl found no clusters")
	}

	// 3. The simple method needs no tables.
	simpleOut, _ := run(t, "clusterctl", "-log", logPath, "-method", "simple", "-top", "3")
	if !strings.Contains(simpleOut, "100.0% coverage") {
		t.Errorf("simple method must cover everything:\n%s", simpleOut)
	}

	// 4. Thresholding mode.
	thOut, _ := run(t, "clusterctl", "-log", logPath, "-method", "simple", "-threshold", "0.7")
	if !strings.Contains(thOut, "busy clusters covering 70.0%") {
		t.Errorf("threshold output:\n%s", thOut)
	}

	// 5. Streaming mode agrees with in-memory mode on cluster counts.
	streamOut, _ := run(t, "clusterctl", "-log", logPath, "-method", "simple", "-stream")
	var memClusters, streamClusters string
	for _, line := range strings.Split(simpleOut, "\n") {
		if strings.HasPrefix(line, "clusters:") {
			memClusters = line
		}
	}
	for _, line := range strings.Split(streamOut, "\n") {
		if strings.HasPrefix(line, "clusters:") {
			streamClusters = line
		}
	}
	if memClusters == "" || memClusters != streamClusters {
		t.Errorf("streaming disagrees with in-memory:\n%q\n%q", memClusters, streamClusters)
	}

	// 6. -workers parses the stream in parallel to the same answer, and
	// is refused without -stream rather than ignored.
	parOut, _ := run(t, "clusterctl", "-log", logPath, "-method", "simple", "-stream", "-workers", "4")
	if parOut != streamOut {
		t.Errorf("parallel streaming disagrees with sequential:\n%s\n%s", parOut, streamOut)
	}
	cmd := exec.Command(filepath.Join(buildTools(t), "clusterctl"), "-log", logPath, "-method", "simple", "-workers", "4")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil || !strings.Contains(stderr.String(), "-stream") {
		t.Errorf("-workers without -stream: err %v, stderr %q; want a usage error naming -stream", err, stderr.String())
	}
}

func TestBgpgenFormatsParseBack(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	// Every output notation must be parseable by ReadSnapshot and agree on
	// the prefix set.
	sizes := map[string]int{}
	for _, format := range []string{"cidr", "netmask", "classful"} {
		out, _ := run(t, "bgpgen", "-view", "MAE-WEST", "-scale", "0.005", "-seed", "3", "-format", format)
		snap, err := bgp.ReadSnapshot(strings.NewReader(out))
		if err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		sizes[format] = len(snap.PrefixSet())
	}
	if sizes["cidr"] != sizes["netmask"] || sizes["cidr"] != sizes["classful"] {
		t.Fatalf("prefix sets differ across formats: %v", sizes)
	}
}

func TestWorldgenSharedGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	dir := t.TempDir()
	worldPath := filepath.Join(dir, "world.txt")
	_, genErr := run(t, "worldgen", "-scale", "0.005", "-seed", "9", "-o", worldPath)
	if !strings.Contains(genErr, "networks") {
		t.Fatalf("worldgen stderr: %q", genErr)
	}
	// Two loggen runs from the same world file must be byte-identical.
	a, _ := run(t, "loggen", "-world", worldPath, "-profile", "Nagano", "-scale", "0.005")
	b, _ := run(t, "loggen", "-world", worldPath, "-profile", "Nagano", "-scale", "0.005")
	if a != b {
		t.Fatal("same world file produced different logs")
	}
	// And bgpgen accepts the same world.
	view, _ := run(t, "bgpgen", "-world", worldPath, "-view", "OREGON", "-scale", "0.005")
	if !strings.Contains(view, "# name: OREGON") {
		t.Fatalf("bgpgen output: %.120q", view)
	}
}

func TestTabletoolDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	dir := t.TempDir()
	day0 := filepath.Join(dir, "d0.txt")
	day14 := filepath.Join(dir, "d14.txt")
	out0, _ := run(t, "bgpgen", "-view", "AADS", "-scale", "0.005", "-seed", "3")
	out14, _ := run(t, "bgpgen", "-view", "AADS", "-scale", "0.005", "-seed", "3", "-day", "14")
	os.WriteFile(day0, []byte(out0), 0o644)
	os.WriteFile(day14, []byte(out14), 0o644)
	diff, _ := run(t, "tabletool", "diff", day0, day14)
	for _, want := range []string{"common", "withdrawn", "announced", "churn:"} {
		if !strings.Contains(diff, want) {
			t.Errorf("diff output missing %q:\n%s", want, diff)
		}
	}
	agg, _ := run(t, "tabletool", "aggregate", day0)
	if !strings.Contains(agg, "CIDR aggregation") {
		t.Errorf("aggregate output:\n%s", agg)
	}
}

func TestExperimentsList(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs binaries")
	}
	out, _ := run(t, "experiments", "-list")
	for _, id := range []string{"fig1", "fig3", "fig7", "fig11", "tab3", "tab4", "tab5", "placement", "multiserver"} {
		if !strings.Contains(out, id) {
			t.Errorf("experiments -list missing %q", id)
		}
	}
}
