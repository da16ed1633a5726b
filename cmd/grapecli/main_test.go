package main

import (
	"errors"
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

func grapecli(t *testing.T, args ...string) (exit int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var errOut strings.Builder
	cmd.Stderr = &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), errOut.String()
}

// TestUnknownSSSPSourceFailsClosed: a source the graph does not have is
// an error naming the id, not a file of +Inf and exit 0.
func TestUnknownSSSPSourceFailsClosed(t *testing.T) {
	g := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(g, []byte("# directed=true weighted=true\n0 1 1.5\n1 2 2\n2 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.txt")
	if exit, stderr := grapecli(t, "-graph", g, "-algo", "sssp", "-source", "1", "-workers", "2", "-out", out); exit != 0 {
		t.Fatalf("a source the graph has: exit %d, stderr %q", exit, stderr)
	}
	exit, stderr := grapecli(t, "-graph", g, "-algo", "sssp", "-source", "99", "-workers", "2", "-out", out+".none")
	if exit != 1 || !strings.Contains(stderr, "99") {
		t.Fatalf("unknown source: exit %d, stderr %q; want exit 1 naming vertex 99", exit, stderr)
	}
	if _, err := os.Stat(out + ".none"); err == nil {
		t.Fatal("unknown source still wrote a result file")
	}
}
