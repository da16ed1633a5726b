// Command simviz renders ASCII timing diagrams of simulated runs: it
// runs one algorithm under all four parallel models on a straggler-laden
// virtual cluster and draws each schedule. The paper's own diagrams are
// aapbench -exp fig1 and -exp fig7.
//
// Usage:
//
//	simviz -algo pagerank -workers 8 -straggler 3 -slow 4
//	simviz -graph g.txt -algo sssp -workers 8
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/harness"
	"aap/internal/partition"
	"aap/internal/sim"
)

func main() {
	graphPath := flag.String("graph", "", "edge-list file (default: generated friendster stand-in)")
	algo := flag.String("algo", "pagerank", "algorithm: sssp, cc, pagerank")
	source := flag.Int64("source", 0, "SSSP source vertex id")
	workers := flag.Int("workers", 8, "number of workers")
	straggler := flag.Int("straggler", 0, "index of the straggler worker, below -workers; negative for none")
	slow := flag.Float64("slow", 4, "straggler slowdown factor, positive")
	width := flag.Int("width", 72, "diagram width in columns")
	flag.Parse()
	if *straggler >= *workers {
		fatal(fmt.Errorf("-straggler %d: no such worker among %d", *straggler, *workers))
	}

	var ds harness.Dataset
	if *graphPath != "" {
		st, err := os.Stat(*graphPath)
		if err != nil {
			fatal(err)
		}
		t0 := time.Now()
		g, err := graph.ReadEdgeListFile(*graphPath)
		if err != nil {
			fatal(err)
		}
		secs := time.Since(t0).Seconds()
		fmt.Printf("loaded %s in %.3fs (%s)\n",
			*graphPath, secs, graph.Throughput(st.Size(), g.NumEdges(), secs))
		ds = harness.Dataset{Name: filepath.Base(*graphPath), Graph: g}
	} else {
		ds = harness.FriendsterSim(harness.Scale())
	}
	ds.Source = graph.VertexID(*source)
	if *algo == "sssp" {
		if _, ok := ds.Graph.IndexOf(ds.Source); !ok {
			fatal(fmt.Errorf("-source %d: no such vertex in %s", *source, ds.Name))
		}
	}
	t0 := time.Now()
	p, err := partition.Build(ds.Graph, *workers, partition.BFSLocality{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("partitioned %s (%d vertices, %d edges) into %d fragments in %.3fs\n\n",
		ds.Name, ds.Graph.NumVertices(), ds.Graph.NumEdges(), *workers, time.Since(t0).Seconds())
	speed := make([]float64, *workers)
	for i := range speed {
		speed[i] = 1
	}
	if *straggler >= 0 {
		speed[*straggler] = *slow
	}
	for _, m := range []core.Mode{core.AAP, core.BSP, core.AP, core.SSP} {
		cfg := sim.Config{Options: core.Options{Mode: m, Staleness: 2}, Speed: speed, Trace: true}
		var trace []sim.Interval
		var seconds float64
		switch *algo {
		case "sssp":
			res, err := sim.Run(p, sssp.Job(ds.Source), cfg)
			if err != nil {
				fatal(err)
			}
			trace, seconds = res.Trace, res.Stats.Seconds
		case "cc":
			res, err := sim.Run(p, cc.Job(), cfg)
			if err != nil {
				fatal(err)
			}
			trace, seconds = res.Trace, res.Stats.Seconds
		case "pagerank":
			res, err := sim.Run(p, pagerank.Job(pagerank.Config{Tol: 1e-4}), cfg)
			if err != nil {
				fatal(err)
			}
			trace, seconds = res.Trace, res.Stats.Seconds
		default:
			fatal(fmt.Errorf("unknown algorithm %q", *algo))
		}
		fmt.Printf("== %s: makespan %.2f virtual seconds ==\n", m, seconds)
		fmt.Print(sim.RenderTrace(trace, *workers, *width))
		fmt.Print(sim.TraceSummary(trace, *workers))
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simviz:", err)
	os.Exit(1)
}
