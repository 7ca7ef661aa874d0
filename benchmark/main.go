// Command benchmark is the repository's benchmark: four workloads, eight
// end-to-end metrics each, and a per-layer ledger from a separate traced
// run. See README.md in this directory for the definitions.
//
//	go run -C benchmark . --workload routed_batch --seed 1 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics; everything above it is for people.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// env is what one run needs from its surroundings.
type env struct {
	root    string
	rig     *rig
	seed    int64
	seconds int
	conns   int // nproc: the unit the workloads size their drivers in
	sinkSeq int
}

var workloads = []string{"routed_batch", "node_small", "offline_log", "table_churn"}

func main() { os.Exit(realMain()) }

// realMain holds the defers that must run before the process exits.
func realMain() int {
	// Children are forked from this goroutine only; see rig.launch.
	runtime.LockOSThread()

	workload := flag.String("workload", "", "one of routed_batch, node_small, offline_log, table_churn")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 16, "length of the measured phase, split into 16 windows")
	trace := flag.Int("trace", 0, "1: the traced run, printing the per-layer metrics instead")
	calibrate := flag.Bool("calibrate", false, "run two sets of runs of every workload and print how well they agree")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("--seconds must be at least 1"))
	}
	if *calibrate {
		if err := runCalibration(*seconds); err != nil {
			return fail(err)
		}
		return 0
	}

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	binDir, err := buildBinaries(root)
	if err != nil {
		return fail(err)
	}
	rg, err := newRig(root, binDir)
	if err != nil {
		return fail(err)
	}
	// Kill and reap every child however the run ends: return, error,
	// panic (the deferred stop runs while the panic unwinds) or signal.
	// Pdeathsig covers a SIGKILL of the harness itself.
	defer rg.stop()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		rg.stop()
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", sig)
		os.Exit(1)
	}()

	e := &env{root: root, rig: rg, seed: *seed, seconds: *seconds, conns: runtime.NumCPU()}
	res, err := e.run(*workload, *trace != 0)
	if err != nil {
		return fail(err)
	}
	res.notes = append([]string{envNote(root),
		fmt.Sprintf("run: workload=%s seed=%d seconds=%d trace=%d", *workload, *seed, *seconds, *trace)}, res.notes...)
	if err := res.print(os.Stdout); err != nil {
		return fail(err)
	}
	return 0
}

// run makes one run and checks that it measured exactly the metrics
// BENCHMARK.json promises for its kind.
func (e *env) run(workload string, traced bool) (res *result, err error) {
	want := endToEnd
	switch {
	case !known(workload):
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	case traced:
		want = perLayer()
		res, err = e.runLedger(workload)
	case workload == "routed_batch":
		res, err = e.runServing(e.setupRouted, routedTailPct)
	case workload == "node_small":
		res, err = e.runServing(e.setupSingle, singleTailPct)
	case workload == "offline_log":
		res, err = e.runOfflineLog()
	case workload == "table_churn":
		res, err = e.runTableChurn()
	}
	if err != nil {
		return nil, err
	}
	return res, res.complete(want)
}

func known(workload string) bool {
	for _, w := range workloads {
		if w == workload {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}
