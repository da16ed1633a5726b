package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary run as graped itself, so the test below
// can observe its exit code.
func TestMain(m *testing.M) {
	if os.Getenv("GRAPED_TEST_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSchedulerFlagsFailClosed: graped exits 2 naming an out-of-range
// scheduler flag (checkScheduler) before it loads anything. Accepted
// flags, the defaults and the smallest legal values, get as far as
// asking for a graph (exit 1), since none is given.
func TestSchedulerFlagsFailClosed(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // "" for accepted, else the refusal
	}{
		{nil, ""},
		{[]string{"-batch-window", "0", "-deadline", "0", "-njobs", "0"}, ""},
		{[]string{"-max-inflight", "1", "-queue-depth", "1", "-batch-max", "1", "-njobs", "3"}, ""},
		{[]string{"-max-inflight", "0"}, "-max-inflight must be a positive count, got 0"},
		{[]string{"-max-inflight", "-1"}, "-max-inflight must be a positive count, got -1"},
		{[]string{"-queue-depth", "0"}, "-queue-depth must be a positive count, got 0"},
		{[]string{"-queue-depth", "-4"}, "-queue-depth must be a positive count, got -4"},
		{[]string{"-batch-max", "0"}, "-batch-max must be a positive count, got 0"},
		{[]string{"-batch-max", "-8"}, "-batch-max must be a positive count, got -8"},
		{[]string{"-njobs", "-1"}, "-njobs must be zero (GOMAXPROCS) or a positive count, got -1"},
		{[]string{"-batch-window", "-2ms"}, "-batch-window must be zero or a positive duration, got -2ms"},
		{[]string{"-deadline", "-1s"}, "-deadline must be zero (none) or a positive duration, got -1s"},
		{[]string{"-pagerank-tol", "NaN"}, "-pagerank-tol must be a positive finite number, got NaN"},
		{[]string{"-pagerank-tol", "0"}, "-pagerank-tol must be a positive finite number, got 0"},
		{[]string{"-pagerank-tol", "-1"}, "-pagerank-tol must be a positive finite number, got -1"},
		{[]string{"-pagerank-tol", "+Inf"}, "-pagerank-tol must be a positive finite number, got +Inf"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "GRAPED_TEST_AS_MAIN=1")
		out, _ := cmd.CombinedOutput() // the exit code is read below
		exit := cmd.ProcessState.ExitCode()
		if c.want == "" && (exit != 1 || !strings.Contains(string(out), "one of -graph or -gen is required")) {
			t.Errorf("%v: exit %d, output %q; want the flags accepted", c.args, exit, out)
		}
		if c.want != "" && (exit != 2 || !strings.Contains(string(out), "graped: "+c.want)) {
			t.Errorf("%v: exit %d, output %q; want exit 2 and %q", c.args, exit, out, c.want)
		}
	}
}
