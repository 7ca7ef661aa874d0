package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the experiments command:
// with EXPERIMENTS_ARGS set it runs main on those (space-separated)
// arguments instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EXPERIMENTS_ARGS"); ok {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadArgumentsBeforeRunning: an unknown id or a scale that is
// not a positive number exits 2 before any experiment starts, even when a
// valid id sorts ahead of the bad one.
func TestRejectsBadArgumentsBeforeRunning(t *testing.T) {
	for _, args := range []string{
		"-scale 0.03 nosuch fig3",
		"-scale 0.03 fig3 tab1 zzz",
		"-scale -1 tab1",
		"-scale 0 tab1",
		"-scale NaN tab1",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "EXPERIMENTS_ARGS="+args)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("experiments %s: err = %v, want exit status 2 (stderr %q)", args, err, stderr.String())
		}
		if strings.Contains(stdout.String(), "########") {
			t.Errorf("experiments %s ran an experiment before rejecting its arguments:\n%.200s", args, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("experiments %s exited without saying why", args)
		}
	}
}

func TestRegistryWellFormed(t *testing.T) {
	if len(registry) < 20 {
		t.Fatalf("registry has only %d experiments", len(registry))
	}
	seen := map[string]bool{}
	for _, e := range registry {
		if e.id == "" || e.title == "" || e.run == nil {
			t.Errorf("malformed experiment %+v", e)
		}
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if strings.ContainsAny(e.id, " \t") {
			t.Errorf("experiment id %q contains whitespace", e.id)
		}
	}
	// Every paper table and figure has a registered regenerator.
	for _, id := range []string{
		"fig1", "tab1", "tab2", "fig3", "fig4", "fig5", "fig6", "tab3",
		"fig7", "tab4", "tab5", "fig9", "fig10", "fig11", "fig12",
		"coverage", "traceopt", "selfcorrect", "sessions", "servercluster",
		"netclusters", "placement", "multiserver", "detect",
	} {
		if !seen[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestStandardViewHelpers(t *testing.T) {
	if maeWest().Name != "MAE-WEST" {
		t.Error("maeWest misresolved")
	}
	if aadsView().Name != "AADS" {
		t.Error("aadsView misresolved")
	}
}

func TestScaledInt(t *testing.T) {
	if got := scaledInt(1000, 0.5, 10); got != 500 {
		t.Errorf("scaledInt = %d", got)
	}
	if got := scaledInt(1000, 0.001, 10); got != 10 {
		t.Errorf("floor not applied: %d", got)
	}
}
