// Roadnet: shortest paths over a road network with a straggler, the
// traffic workload of the paper's evaluation.
//
// The example generates a grid road network (the stand-in for the US
// road graph), partitions it with a deliberately skewed partitioner so
// one worker holds far more road segments than the rest, and compares
// the four parallel models on the virtual-time simulator — the same
// methodology as Figure 6(k). It prints the timing diagram of the AAP
// run so the straggler's accumulated rounds are visible.
package main

import (
	"fmt"
	"log"

	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/partition"
	"aap/internal/sim"
)

func main() {
	g := gen.Grid(120, 120, 7)
	fmt.Printf("road network: %d intersections, %d segments\n", g.NumVertices(), g.NumEdges())

	p, err := partition.Build(g, 8, partition.Skewed{Ratio: 5, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partition skew r = %.1f across %d workers\n\n", p.Skew(), p.M)

	aap := sim.NewRecorder(p.M)
	for _, mode := range []core.Mode{core.AAP, core.BSP, core.AP, core.SSP} {
		opts := core.Options{Mode: mode, Staleness: 2}
		if mode == core.AAP {
			opts.Observe = aap.Observe
		}
		res, err := sim.Run(p, sssp.Job(0), sim.Config{Options: opts})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s time %7.3f virtual s, rounds max %2d, comm %6.2f MB\n",
			mode, res.Stats.Seconds, res.Stats.MaxRound, float64(res.Stats.TotalBytes)/(1<<20))
	}
	fmt.Println("\nAAP schedule ('#' computing, '.' waiting):")
	fmt.Print(sim.RenderTrace(aap.Intervals(), p.M, 72))
}
