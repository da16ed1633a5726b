package harness_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"aap/internal/harness"
)

// makespans parses "(MODE) makespan N ..." lines from a report.
func makespans(t *testing.T, out string) map[string]float64 {
	t.Helper()
	mk := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		idx := strings.Index(line, "makespan")
		if idx < 0 || !strings.HasPrefix(line, "(") {
			continue
		}
		close := strings.Index(line, ")")
		mode := line[1:close]
		fields := strings.Fields(line[idx:])
		num := strings.TrimSuffix(fields[1], ",")
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			t.Fatalf("bad makespan line %q: %v", line, err)
		}
		mk[mode] = v
	}
	if len(mk) != 4 {
		t.Fatalf("parsed %d makespans from:\n%s", len(mk), out)
	}
	return mk
}

func TestFig1ShapesHold(t *testing.T) {
	out, err := harness.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	for _, want := range []string{"(AAP)", "(BSP)", "(AP)", "(SSP)", "P1", "P3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 output missing %q", want)
		}
	}
	// Fig 1 is deterministic, so it is pinned whole: every diagram, round
	// count and makespan.
	golden, err := os.ReadFile("testdata/fig1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("Fig1 output differs from testdata/fig1.golden")
	}
	mk := makespans(t, out)
	// The headline claim of Example 1: AAP finishes no later than BSP.
	if mk["AAP"] > mk["BSP"]+1e-9 {
		t.Errorf("Fig1: AAP makespan %.0f exceeds BSP %.0f", mk["AAP"], mk["BSP"])
	}
}

func TestFig6PanelRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := harness.Fig6(harness.Fig6Panels()[1], []int{8, 16}) // SSSP on friendster-sim
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	if !strings.Contains(out, "Figure 6(b)") {
		t.Error("missing panel header")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header+2 data rows, got %d lines", len(lines))
	}
}

func TestFig6kSkewTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := harness.Fig6k(8, []float64{1, 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	rows := parseSeries(t, out, 4)
	// At r=9 the straggler dominates: AAP (column 0) must beat BSP
	// (column 1), the paper's Exp-4 claim.
	r9 := rows[len(rows)-1]
	if r9[0] > r9[1] {
		t.Errorf("at r=9 AAP %.2f slower than BSP %.2f", r9[0], r9[1])
	}
	// Virtual time prices the work the kernels report, and a kernel's
	// round runs on one goroutine, so the table repeats to the digit —
	// also at r=9, where one fragment holds most of the graph.
	again, err := harness.Fig6k(8, []float64{1, 9})
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Errorf("virtual times differ between two identical runs:\n%s\n%s", out, again)
	}
}

// parseSeries extracts the numeric columns of a worker/ratio sweep table.
func parseSeries(t *testing.T, out string, cols int) [][]float64 {
	t.Helper()
	var rows [][]float64
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != cols+1 {
			continue
		}
		if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
			continue
		}
		var row []float64
		ok := true
		for _, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				ok = false
				break
			}
			row = append(row, v)
		}
		if ok {
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no data rows in:\n%s", out)
	}
	return rows
}

func TestScaleUpNearFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := harness.Fig6ScaleUp("sssp", []int{8, 16, 24})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	rows := parseSeries(t, out, 2)
	last := rows[len(rows)-1][1]
	if last > 3 {
		t.Errorf("scale-up ratio %.2f degrades badly (want near flat)", last)
	}
}

func TestCFCaseRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := harness.CFCase()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	if !strings.Contains(out, "robustness") {
		t.Error("missing robustness sweep")
	}
}

func TestDatasetsWellFormed(t *testing.T) {
	for _, ds := range []harness.Dataset{
		harness.FriendsterSim(1), harness.TrafficSim(1), harness.UKWebSim(1),
		harness.MovieLensSim(1), harness.NetflixSim(1), harness.SyntheticSim(16, 1),
	} {
		if ds.Graph == nil || ds.Graph.NumVertices() == 0 {
			t.Errorf("%s: empty graph", ds.Name)
		}
		if ds.Name == "" {
			t.Error("dataset without name")
		}
	}
	if harness.Scale() < 1 {
		t.Error("Scale() < 1")
	}
}
