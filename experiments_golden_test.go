package netcluster_test

// A paper-fidelity gate: every table and figure the experiments command
// regenerates is compared byte-for-byte against a committed golden, so a
// refactor under any clustering, validation or caching path cannot shift
// a published number unnoticed. Refresh the golden deliberately with
//
//	go test -run TestExperimentsGolden -update .

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/experiments_golden.txt from the current experiments output")

// goldenSkip names the ids left out of the golden: perf prints wall-clock
// timings.
var goldenSkip = map[string]bool{"perf": true}

// completedLine matches the per-experiment wall-clock footer.
var completedLine = regexp.MustCompile(`(?m)^\[\S+ completed in [^\]]*\]\n`)

func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment end to end")
	}
	listOut, _ := run(t, "experiments", "-list")
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(listOut), "\n") {
		if f := strings.Fields(line); len(f) > 0 && !goldenSkip[f[0]] {
			ids = append(ids, f[0])
		}
	}
	out, _ := run(t, "experiments", append([]string{"-scale", "0.03", "-seed", "1"}, ids...)...)
	got := completedLine.ReplaceAllString(out, "")

	golden := filepath.Join("testdata", "experiments_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d ids)", golden, len(ids))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("experiments output differs from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is intended)",
				golden, i+1, g, w)
		}
	}
	t.Fatalf("experiments output differs from %s (%d vs %d bytes)", golden, len(got), len(want))
}
