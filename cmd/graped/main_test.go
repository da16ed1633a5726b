package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"aap/internal/serve"
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
		{[]string{"-deadline", "0"}, ""},
		{[]string{"-max-inflight", "1", "-queue-depth", "1"}, ""},
		{[]string{"-max-inflight", "0"}, "-max-inflight must be a positive count, got 0"},
		{[]string{"-max-inflight", "-1"}, "-max-inflight must be a positive count, got -1"},
		{[]string{"-queue-depth", "0"}, "-queue-depth must be a positive count, got 0"},
		{[]string{"-queue-depth", "-4"}, "-queue-depth must be a positive count, got -4"},
		{[]string{"-deadline", "-1s"}, "-deadline must be zero (the engine's 5-minute bound) or a positive duration, got -1s"},
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

// TestShutdownCountsQueryInFlight: a query in flight when graped gets
// SIGTERM is answered, and the shutdown line, logged once the server
// has drained, counts it as completed.
func TestShutdownCountsQueryInFlight(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], "-gen", "grid:400:400:1", "-workers", "4", "-addr-file", addrFile)
	cmd.Env = append(os.Environ(), "GRAPED_TEST_AS_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var addr []byte
	for deadline := time.Now().Add(30 * time.Second); len(addr) == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("graped never published its address")
		}
		addr, _ = os.ReadFile(addrFile)
	}
	c, err := serve.DialRPC(string(addr), 7, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	answered := make(chan error, 1)
	go func() {
		_, _, err := c.PageRank()
		answered <- err
	}()
	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Active == 1 {
			break
		}
		select {
		case err := <-answered:
			t.Fatalf("PageRank answered (error %v) before the server counted it active", err)
		default:
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-answered; err != nil {
		t.Fatalf("PageRank in flight at SIGTERM: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("graped: %v\n%s", err, stderr.String())
	}
	if log := stderr.String(); !strings.Contains(log, "shutting down: admitted=1 completed=1 ") {
		t.Fatalf("the shutdown line does not count the query in flight:\n%s", log)
	}
}
