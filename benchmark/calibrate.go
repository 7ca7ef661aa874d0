package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Calibration answers one question before the benchmark is trusted: do
// two sets of runs of the same code agree? It re-executes this binary —
// one process per run, as the driver does, so peak RSS and set-up are
// per-run facts — five runs per set, every run on its own seed, and prints
// per (workload, metric) both sets' medians and quartiles, their relative
// gap, and the spread (interquartile range over median) of all ten runs.
// The table is committed as CALIBRATION.md.

const calibrationRuns = 5 // per set

func runCalibration(seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	logDir := filepath.Join(root, buildDirName, "calibration")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	bounds, err := loadBounds(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}

	fmt.Printf("# Calibration\n\n%s\n\n", envNote(root))
	fmt.Printf("Two sets (A, B) of %d runs per workload, `--seconds %d`, seeds 1–%d in set A and %d–%d in set B,\n"+
		"alternating A and B. `gap` is |median A − median B| ÷ median A; `spread` is (Q3 − Q1) ÷ median over all %d runs,\n"+
		"with quartiles as Python's `statistics.quantiles(v, n=4)` gives them. A pair passes when its gap is within half\n"+
		"its bound and its spread within a third.\n\n",
		calibrationRuns, seconds, calibrationRuns, calibrationRuns+1, 2*calibrationRuns, 2*calibrationRuns)

	failed := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < calibrationRuns; i++ {
			for s := 0; s < 2; s++ {
				seed := s*calibrationRuns + i + 1
				m, err := oneRun(exe, logDir, w, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				for name, v := range m {
					sets[s][name] = append(sets[s][name], v)
				}
				fmt.Fprintf(os.Stderr, "calibrate: %s seed %d done\n", w, seed)
			}
		}
		fmt.Printf("## %s\n\n| metric | bound | median A | Q1–Q3 A | median B | Q1–Q3 B | gap | spread | |\n|---|---|---|---|---|---|---|---|---|\n", w)
		for _, name := range endToEnd {
			a, b := sets[0][name], sets[1][name]
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			q1, qm, q3 := quartiles(append(append([]float64(nil), a...), b...))
			gap := math.Abs(am-bm) / am
			spread := (q3 - q1) / qm
			verdict := "ok"
			if gap > bounds[name]/2 || (name != mSetup && spread > bounds[name]/3) {
				verdict = "NOISY"
				failed++
			}
			fmt.Printf("| %s | %.0f%% | %.5g | %.5g–%.5g | %.5g | %.5g–%.5g | %.1f%% | %.1f%% | %s |\n",
				name, 100*bounds[name], am, a1, a3, bm, b1, b3, 100*gap, 100*spread, verdict)
		}
		fmt.Println()
	}
	if failed > 0 {
		fmt.Printf("%d (workload, metric) pairs are too noisy for their bound.\n", failed)
	} else {
		fmt.Println("Every (workload, metric) pair repeats within its bound.")
	}
	return nil
}

// oneRun executes one untraced run in a child process, keeps its full
// output under logDir and returns the metrics of its last line.
func oneRun(exe, logDir, workload string, seed, seconds int) (map[string]float64, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	// Keep the run's output whether it succeeded or not: a failed run's
	// notes are the diagnosis.
	logged := append(append([]byte(nil), out...), stderr.Bytes()...)
	if werr := os.WriteFile(filepath.Join(logDir, fmt.Sprintf("%s-%d.txt", workload, seed)), logged, 0o644); werr != nil {
		return nil, werr
	}
	if err != nil {
		return nil, fmt.Errorf("%v: %s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("last line is not the result object: %v", err)
	}
	if !r.Correct || r.Failed > 0 {
		return nil, fmt.Errorf("run incorrect or with failed operations: %s", lines[len(lines)-1])
	}
	m := make(map[string]float64, len(r.Metrics))
	for name, v := range r.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

// benchmarkFile is BENCHMARK.json, as far as this program reads it.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &bf, nil
}

func loadBounds(path string) (map[string]float64, error) {
	bf, err := readBenchmarkFile(path)
	if err != nil {
		return nil, err
	}
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
