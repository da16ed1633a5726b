package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// spec is BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end_to_end only
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// runSet is one -out file: every run of every workload in it.
type runSet struct {
	values            map[string]map[string][]float64 // workload, metric: one value per run
	attempted, failed map[string]int                  // workload: summed over its runs
}

func readRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rs.values[res.Workload] == nil {
			rs.values[res.Workload] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			rs.values[res.Workload][name] = append(rs.values[res.Workload][name], m.Value)
		}
		rs.attempted[res.Workload] += res.Attempted
		rs.failed[res.Workload] += res.Failed
	}
	return rs, sc.Err()
}

// compare prints, per workload and metric, the medians of the two run
// sets, how much B is worse than A, and a verdict against the metric's
// bound: "worse" beyond it, "unresolved" where either set's own spread
// (quartile distance over median) is wider than the bound, else "ok".
// Per-layer metrics have no bound and get no verdict. It reports worse
// when any verdict is, or when a workload's failed ratio rose.
func compare(specPath, pathA, pathB string, out io.Writer) (worse bool, err error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return false, err
	}
	for _, wl := range sp.Workloads {
		va, vb := a.values[wl.Name], b.values[wl.Name]
		if va == nil || vb == nil {
			continue
		}
		fa := ratio(float64(a.failed[wl.Name]), float64(a.attempted[wl.Name]))
		fb := ratio(float64(b.failed[wl.Name]), float64(b.attempted[wl.Name]))
		verdict := "ok"
		if fb > fa {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(out, "\n%s  failed_ratio %g -> %g  %s\n", wl.Name, fa, fb, verdict)
		fmt.Fprintf(out, "  %-32s %-6s %14s %14s %9s %7s %9s %9s  %s\n", "metric", "unit", "median A", "median B", "worse by", "bound", "spread A", "spread B", "verdict")
		for _, m := range slices.Concat(sp.EndToEnd, sp.PerLayer) {
			xa, xb := va[m.Name], vb[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := summarize(xa, "").Value, summarize(xb, "").Value
			by := ratio(mb-ma, ma)
			if m.Better == "higher" {
				by = -by
			}
			bound, verdict := "-", "-"
			if m.Bound > 0 { // an end-to-end metric
				bound = fmt.Sprintf("%.1f%%", 100*m.Bound)
				switch {
				case spread(xa) > m.Bound || spread(xb) > m.Bound:
					verdict = "unresolved"
				case by > m.Bound:
					verdict, worse = "worse", true
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(out, "  %-32s %-6s %14.6g %14.6g %+8.1f%% %7s %8.1f%% %8.1f%%  %s\n",
				m.Name, m.Unit, ma, mb, 100*by, bound, 100*spread(xa), 100*spread(xb), verdict)
		}
	}
	return worse, nil
}
