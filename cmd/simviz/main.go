// Command simviz renders ASCII timing diagrams: it runs one algorithm
// under all four parallel models on a straggler-laden virtual cluster
// and draws each schedule, and under it the schedule of the real engine
// (core.Run, wall clock, no straggler) on the same partition, each with
// its workers' rounds, busy time and run-now / hold / suspend decisions.
// The paper's own diagrams are aapbench -exp fig1 and -exp fig7.
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
	switch *algo {
	case "sssp":
		draw(p, sssp.Job(ds.Source), speed, *width)
	case "cc":
		draw(p, cc.Job(), speed, *width)
	case "pagerank":
		draw(p, pagerank.Job(pagerank.Config{Tol: 1e-4}), speed, *width)
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
}

// draw runs job under each model, in virtual time with the straggler and
// then on the real engine over the same partition, and draws both runs'
// schedules, each with a per-worker summary.
func draw[T any](p *partition.Partitioned, job core.Job[T], speed []float64, width int) {
	drivers := []struct {
		clock string
		run   func(core.Options) (*core.Result[T], error)
	}{
		{"virtual seconds", func(o core.Options) (*core.Result[T], error) {
			return sim.Run(p, job, sim.Config{Options: o, Speed: speed})
		}},
		{"wall seconds, real engine, no straggler", func(o core.Options) (*core.Result[T], error) { return core.Run(p, job, o) }},
	}
	for _, m := range []core.Mode{core.AAP, core.BSP, core.AP, core.SSP} {
		for _, d := range drivers {
			rec := sim.NewRecorder(p.M)
			res, err := d.run(core.Options{Mode: m, Staleness: 2, Observe: rec.Observe})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("== %s: makespan %.3f %s ==\n", m, res.Stats.Seconds, d.clock)
			fmt.Print(sim.RenderTrace(rec.Intervals(), p.M, width))
			fmt.Printf("%-8s %8s %10s %8s %6s %6s %8s\n", "worker", "rounds", "busy(s)", "busy%", "now", "hold", "suspend")
			for i, w := range res.Stats.Workers {
				now, hold, suspend := rec.Decisions(i)
				fmt.Printf("P%-7d %8d %10.3f %7.1f%% %6d %6d %8d\n",
					i+1, w.Rounds, w.BusySeconds, 100*w.BusySeconds/res.Stats.Seconds, now, hold, suspend)
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simviz:", err)
	os.Exit(1)
}
