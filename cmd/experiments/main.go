// Command experiments regenerates every table and figure of the paper's
// evaluation from the synthetic substrate. Each experiment id matches the
// per-experiment index in DESIGN.md:
//
//	experiments -list
//	experiments fig3 fig7 tab3
//	experiments -scale 0.2 all
//
// Scale proportionally shrinks the log populations (1.0 = the paper's
// published counts); distributional shapes do not depend on it.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"github.com/netaware/netcluster/internal/obsv"
)

type experiment struct {
	id    string
	title string
	run   func(*env)
}

var registry []experiment

func register(id, title string, run func(*env)) {
	registry = append(registry, experiment{id, title, run})
}

func main() {
	scale := flag.Float64("scale", 0.05, "log population scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 1, "world generation seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file after the experiments run")
	traceOut := flag.String("trace-out", "", "write the flight-recorder trace (Chrome trace_event JSON) to this file after the experiments run")
	flag.Parse()

	if *list {
		for _, e := range registry {
			fmt.Printf("%-14s %s\n", e.id, e.title)
		}
		return
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) { // NaN fails the comparison too
		fmt.Fprintf(os.Stderr, "experiments: -scale must be a positive finite number, got %v\n", *scale)
		os.Exit(2)
	}
	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: experiments [-scale f] [-seed n] <id>... | all | -list")
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = ids[:0]
		for _, e := range registry {
			ids = append(ids, e.id)
		}
	}
	byID := map[string]experiment{}
	for _, e := range registry {
		byID[e.id] = e
	}
	// Reject a bad id before any experiment runs, not after the ones that
	// sort ahead of it.
	for _, id := range ids {
		if _, ok := byID[id]; !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
	}
	sort.Strings(ids)
	e := newEnv(*scale, *seed)
	for _, id := range ids {
		exp := byID[id]
		start := time.Now()
		fmt.Printf("\n######## %s — %s\n\n", exp.id, exp.title)
		// Each experiment gets a root span; library calls made through
		// e.Ctx() nest their spans under it in the flight recorder.
		ctx, sp := obsv.StartTraceSpan(context.Background(), "experiments."+exp.id)
		e.ctx = ctx
		exp.run(e)
		sp.End()
		e.ctx = context.Background()
		fmt.Printf("\n[%s completed in %v]\n", exp.id, time.Since(start).Round(time.Millisecond))
	}
	if *metricsOut != "" {
		if err := obsv.WriteFile(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nmetrics snapshot written to %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := obsv.WriteTraceFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace written to %s\n", *traceOut)
	}
}
