package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specFile = "../BENCHMARK.json"

// tinyRun runs all four workloads at -scale tiny and returns the lines
// of the -out file and what the run printed.
func tinyRun(t *testing.T, trace string, tmp string) ([]result, string) {
	t.Helper()
	outFile := filepath.Join(tmp, "out-"+trace+".json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scale", "tiny", "-seconds", "0", "-reps", "3", "-trace", trace, "-tmp", tmp, "-out", outFile}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("trace %s: exit %d\n%s%s", trace, code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var results []result
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	return results, stdout.String()
}

// TestSmoke runs every workload untraced and traced and holds the
// output against BENCHMARK.json: every workload and metric named there
// is reported, under that name and unit and no other, every answer is
// correct, and the last line is the object the driver reads.
func TestSmoke(t *testing.T) {
	sp, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	tmp := t.TempDir()
	for trace, want := range map[string][]specMetric{"0": sp.EndToEnd, "1": sp.PerLayer} {
		results, stdout := tinyRun(t, trace, tmp)
		if len(results) != len(sp.Workloads) {
			t.Fatalf("trace %s: %d workloads ran, BENCHMARK.json names %d", trace, len(results), len(sp.Workloads))
		}
		for i, res := range results {
			if res.Workload != sp.Workloads[i].Name || !name.MatchString(res.Workload) {
				t.Errorf("trace %s: workload %q, BENCHMARK.json names %q", trace, res.Workload, sp.Workloads[i].Name)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, failed %d of %d", res.Workload, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics reported, BENCHMARK.json names %d", res.Workload, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !name.MatchString(m.Name) {
					t.Errorf("%s trace %s: metric %q unit %q: reported %v as %+v", res.Workload, trace, m.Name, m.Unit, ok, got)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (trace == "0" && got.Value <= 0) {
					t.Errorf("%s trace %s: metric %q = %v", res.Workload, trace, m.Name, got.Value)
				}
				if !strings.Contains(stdout, "  "+m.Name+" ") {
					t.Errorf("trace %s: the report does not print %q", trace, m.Name)
				}
			}
		}
		lines := strings.Split(strings.TrimSpace(stdout), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Errorf("trace %s: last line has keys %v", trace, last)
		}
		var metrics map[string]map[string]json.RawMessage
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(want) {
			t.Errorf("trace %s: last line has %d metrics, want %d", trace, len(metrics), len(want))
		}
		for n, m := range metrics {
			if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
				t.Errorf("trace %s: last line metric %q has keys %v", trace, n, m)
			}
		}
	}

	// The trace the traced run wrote: every span closed, under a live
	// parent or a root, and each rep's wall time fully accounted for.
	data, err := os.ReadFile(filepath.Join(tmp, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	byWorkload := make(map[string][]span)
	for _, sp := range spans {
		byWorkload[sp.Workload] = append(byWorkload[sp.Workload], sp)
	}
	if len(byWorkload) != len(sp.Workloads) {
		t.Errorf("trace.json has spans of %d workloads", len(byWorkload))
	}
	for wl, spans := range byWorkload {
		answers := 0
		for i, sp := range spans {
			if sp.ID != i+1 || sp.End < sp.Start || sp.Parent < 0 || sp.Parent >= sp.ID {
				t.Fatalf("%s: bad span %+v", wl, sp)
			}
			if sp.Parent > 0 {
				if p := spans[sp.Parent-1]; p.Rep != sp.Rep || p.Start > sp.Start || p.End < sp.End {
					t.Errorf("%s: span %+v is not inside its parent %+v", wl, sp, p)
				}
			}
			if sp.Name != "answer" {
				continue
			}
			answers++
			wall, self, residual := account(spans, sp.ID)
			total := residual
			for _, s := range self {
				total += s
			}
			if math.Abs(total-wall) > 0.01*wall {
				t.Errorf("%s rep %d: self times %v + residual %g = %g, wall %g", wl, sp.Rep, self, residual, total, wall)
			}
		}
		if answers != 2 {
			t.Errorf("%s: %d traced reps, want 2 (-reps 3, the first untraced)", wl, answers)
		}
	}
}

// TestCompare feeds -compare two run sets made from one: itself, and a
// copy with answer_s worse by more than its bound.
func TestCompare(t *testing.T) {
	sp, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var bound float64
	for _, m := range sp.EndToEnd {
		if m.Name == "answer_s" {
			bound = m.Bound
		}
	}
	tmp := t.TempDir()
	write := func(name string, factor float64, failed int) string {
		path := filepath.Join(tmp, name)
		for _, v := range []float64{1.00, 1.01, 0.99} {
			res := &result{Workload: sp.Workloads[0].Name, Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]summary{"answer_s": {Value: v * factor, Unit: "s"}, "qps": {Value: v / factor, Unit: "1/s"}}}
			if err := appendLine(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.json", 1, 0)
	for _, c := range []struct {
		name  string
		other string
		worse bool
		want  string
	}{
		{"same", base, false, " ok"},
		{"slower", write("slower.json", 1+bound+0.05, 0), true, " worse"},
		{"faster", write("faster.json", 0.5, 0), false, " ok"},
		{"failing", write("failing.json", 1, 1), true, "failed_ratio 0 -> 0.1  worse"},
	} {
		var out bytes.Buffer
		worse, err := compare(specFile, base, c.other, &out)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: worse %v, want %v and %q in\n%s", c.name, worse, c.worse, c.want, out.String())
		}
	}
}

// TestSpec holds BENCHMARK.json to what the program reports and to the
// rules its bounds were chosen under.
func TestSpec(t *testing.T) {
	sp, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	for list, pair := range map[string]struct {
		spec []specMetric
		defs []metricDef
	}{"end_to_end": {sp.EndToEnd, endToEnd}, "per_layer": {sp.PerLayer, perLayer}} {
		if len(pair.spec) != len(pair.defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", list, len(pair.spec), len(pair.defs))
		}
		for i, m := range pair.spec {
			if m.Name != pair.defs[i].name || m.Unit != pair.defs[i].unit || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s[%d]: %+v in BENCHMARK.json, %+v in the program", list, i, m, pair.defs[i])
			}
		}
	}
	var setup, largest float64
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	if setup != largest {
		t.Errorf("setup_s has bound %g, the largest is %g", setup, largest)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g", q1, med, q3)
	}
}

func TestHighPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 3}, {24, 14}, {300, 285}, {200, 190}} {
		if got := highPercentile(seq(c.n), 0.95); got != c.want {
			t.Errorf("n=%d: %g, want %g", c.n, got, c.want)
		}
	}
}
