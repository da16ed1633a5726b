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

// TestBadStragglerFailsClosed: a straggler the cluster does not have, or a
// slowdown that is not one, is exit 1 naming the value, not an even run
// drawn under a "straggler" heading; a negative -straggler asks for none.
func TestBadStragglerFailsClosed(t *testing.T) {
	g := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(g, []byte("# directed=true weighted=true\n0 1 1.5\n1 2 2\n2 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string // "" for exit 0
	}{
		{[]string{"-straggler", "1"}, ""},
		{[]string{"-straggler", "-1", "-slow", "0"}, ""},
		{[]string{"-straggler", "2"}, "-straggler 2: no such worker among 2"},
		{[]string{"-straggler", "1", "-slow", "0"}, "Speed[1] = 0"},
		{[]string{"-straggler", "0", "-slow", "-4"}, "Speed[0] = -4"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-graph", g, "-algo", "cc", "-workers", "2"}, c.args...)...)
		cmd.Env = append(os.Environ(), "SIMVIZ_TEST_AS_MAIN=1")
		out, _ := cmd.CombinedOutput() // the exit code is read below
		exit := cmd.ProcessState.ExitCode()
		if c.want == "" && exit != 0 || c.want != "" && (exit != 1 || !strings.Contains(string(out), c.want) || strings.Contains(string(out), "makespan")) {
			t.Errorf("%v: exit %d, output %q; want %q and no diagram", c.args, exit, out, c.want)
		}
	}
}
