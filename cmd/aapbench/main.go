// Command aapbench regenerates the paper's tables and figures. Each
// experiment prints the same rows or series the paper reports, produced
// by the harness over the synthetic dataset stand-ins.
//
// Usage:
//
//	aapbench -exp table1|fig1|fig6a..fig6h|fig6i|fig6j|fig6k|fig6l|fig7|exp2|cfcase|all
//	aapbench -exp fig6b -workers 64,96,128,160,192
//	aapbench -exp fig6b -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Dataset sizes scale with the AAP_SCALE environment variable. Wall-clock
// measurement of this repo's own planes (ingest, kernels, wire,
// checkpoints, serving) is benchmark/'s job: bash benchmark/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"aap/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1, fig1, fig6a..fig6l, fig7, exp2, cfcase, all)")
	workersFlag := flag.String("workers", "16,32,48,64", "comma-separated worker counts for figure sweeps")
	tableWorkers := flag.Int("table-workers", 32, "worker count for table1/exp2")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	workers, err := parseInts(*workersFlag)
	if err != nil {
		fatal(err)
	}
	// fatal exits via os.Exit, which would skip deferred profile
	// flushing and leave a truncated pprof file; stop explicitly on both
	// paths instead.
	stopProfile := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if err := run(*exp, workers, *tableWorkers); err != nil {
		stopProfile()
		fatal(err)
	}
	stopProfile()
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aapbench:", err)
	os.Exit(1)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// allExperiments is what -exp all runs, in the paper's order.
var allExperiments = []string{
	"table1", "fig1",
	"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f", "fig6g", "fig6h",
	"fig6i", "fig6j", "fig6k", "fig6l", "exp2", "fig7", "cfcase",
}

// experiments maps each -exp name to its report generator.
func experiments(workers []int, tableWorkers int) map[string]func() (string, error) {
	exps := map[string]func() (string, error){
		"table1": func() (string, error) { return harness.Table1(tableWorkers) },
		"fig1":   harness.Fig1,
		"fig6i":  func() (string, error) { return harness.Fig6ScaleUp("sssp", workers) },
		"fig6j":  func() (string, error) { return harness.Fig6ScaleUp("pagerank", workers) },
		"fig6k":  func() (string, error) { return harness.Fig6k(tableWorkers, []float64{1, 3, 5, 7, 9}) },
		"fig6l":  func() (string, error) { return harness.Fig6l(workers) },
		"fig7":   harness.Fig7,
		"exp2":   func() (string, error) { return harness.Exp2Comm(tableWorkers) },
		"cfcase": harness.CFCase,
	}
	for _, p := range harness.Fig6Panels() {
		exps["fig6"+p.Panel] = func() (string, error) { return harness.Fig6(p, workers) }
	}
	return exps
}

func run(exp string, workers []int, tableWorkers int) error {
	exps := experiments(workers, tableWorkers)
	names := []string{exp}
	if exp == "all" {
		names = allExperiments
	}
	for _, name := range names {
		fn, ok := exps[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		out, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("==== %s ====\n%s\n", name, out)
	}
	return nil
}
