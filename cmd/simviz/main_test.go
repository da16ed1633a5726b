package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary run as simviz itself, so the test below
// can observe its exit code.
func TestMain(m *testing.M) {
	if os.Getenv("SIMVIZ_TEST_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestUnknownSSSPSourceFailsClosed: a source the graph does not have is
// exit 1 naming the id, as in grapecli, not four diagrams of an all-Inf run.
func TestUnknownSSSPSourceFailsClosed(t *testing.T) {
	g := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(g, []byte("# directed=true weighted=true\n0 1 1.5\n1 2 2\n2 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for source, wantExit := range map[string]int{"1": 0, "99": 1} {
		cmd := exec.Command(os.Args[0], "-graph", g, "-algo", "sssp", "-workers", "2", "-source", source)
		cmd.Env = append(os.Environ(), "SIMVIZ_TEST_AS_MAIN=1")
		out, _ := cmd.CombinedOutput() // the exit code is read below
		if exit := cmd.ProcessState.ExitCode(); exit != wantExit {
			t.Errorf("-source %s: exit %d, want %d; output %q", source, exit, wantExit, out)
		}
		if wantExit == 1 && (!strings.Contains(string(out), "-source "+source+": no such vertex") || strings.Contains(string(out), "makespan")) {
			t.Errorf("-source %s: want a refusal naming the vertex and no diagram, got %q", source, out)
		}
	}
}
