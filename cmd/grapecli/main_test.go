package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// asMainEnv, when set, makes the test binary behave as grapecli itself,
// so the tests below can observe exit codes.
const asMainEnv = "GRAPECLI_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func grapecli(t *testing.T, args ...string) (exit int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errOut.String()
}

// TestUnknownSSSPSourceFailsClosed: a source the graph does not have is
// an error naming the id, not a file of +Inf and exit 0.
func TestUnknownSSSPSourceFailsClosed(t *testing.T) {
	g := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(g, []byte("# directed=true weighted=true\n0 1 1.5\n1 2 2\n2 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.txt")
	if exit, _, stderr := grapecli(t, "-graph", g, "-algo", "sssp", "-source", "1", "-workers", "2", "-out", out); exit != 0 {
		t.Fatalf("a source the graph has: exit %d, stderr %q", exit, stderr)
	}
	exit, _, stderr := grapecli(t, "-graph", g, "-algo", "sssp", "-source", "99", "-workers", "2", "-out", out+".none")
	if exit != 1 || !strings.Contains(stderr, "99") {
		t.Fatalf("unknown source: exit %d, stderr %q; want exit 1 naming vertex 99", exit, stderr)
	}
	if _, err := os.Stat(out + ".none"); err == nil {
		t.Fatal("unknown source still wrote a result file")
	}
}

// TestTransportTCPSurvivesRemoteWorkers: -remote-workers used to replace
// the TransportOptions that -transport tcp had set, so the two flags
// together ran the local workers' batches in-proc without a word. With
// both, every batch crosses the wire: more wire bytes out than with the
// remote host alone, and no fewer than the message bytes the run accounts.
func TestTransportTCPSurvivesRemoteWorkers(t *testing.T) {
	var edges strings.Builder
	edges.WriteString("# directed=true weighted=true\n")
	rng := rand.New(rand.NewSource(1))
	for v := 0; v < 400; v++ {
		for k := 0; k < 4; k++ {
			fmt.Fprintf(&edges, "%d %d %d\n", v, rng.Intn(400), 1+rng.Intn(9))
		}
	}
	g := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(g, []byte(edges.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	// run returns the accounted message bytes and the wire bytes out.
	run := func(extra ...string) (accounted, wireOut int64) {
		args := append([]string{"-graph", g, "-algo", "sssp", "-workers", "4", "-partition", "hash", "-remote-workers", "1"}, extra...)
		exit, stdout, stderr := grapecli(t, args...)
		if exit != 0 {
			t.Fatalf("%v: exit %d, stderr %q", extra, exit, stderr)
		}
		var secs float64
		var rounds, msgs int64
		for _, line := range strings.Split(stdout, "\n") {
			fmt.Sscanf(line, "time %fs, rounds max %d, messages %d, bytes %d", &secs, &rounds, &msgs, &accounted)
			fmt.Sscanf(line, "wire: %d bytes out", &wireOut)
		}
		if accounted == 0 || wireOut == 0 {
			t.Fatalf("%v: no time/wire lines in %q", extra, stdout)
		}
		return accounted, wireOut
	}
	_, remoteOnly := run()
	accounted, both := run("-transport", "tcp")
	if both <= remoteOnly || both < accounted {
		t.Fatalf("-transport tcp -remote-workers 1 wrote %d wire bytes (%d accounted message bytes); -remote-workers 1 alone wrote %d", both, accounted, remoteOnly)
	}
}
