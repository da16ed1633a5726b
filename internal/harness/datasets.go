// Package harness drives the paper's evaluation (Section 7): it builds
// the stand-in datasets, runs every engine/mode combination, and formats
// the tables and figure series of the paper. Every experiment function
// returns a printable report; cmd/aapbench and the root benchmarks call
// them. Only the paper's rows live here, priced by internal/sim (Table 1
// also times the real engine): wall-clock measurement of this repo's own
// planes belongs to benchmark/, and their correctness contracts to tests.
package harness

import (
	"fmt"
	"os"
	"strconv"

	"aap/internal/gen"
	"aap/internal/graph"
)

// Scale multiplies dataset sizes. 1 is the laptop default used by the
// benchmarks; the AAP_SCALE environment variable overrides it for larger
// runs on bigger machines.
func Scale() int {
	if s := os.Getenv("AAP_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 1
}

// Dataset is one workload graph with its metadata.
type Dataset struct {
	Name   string
	Graph  *graph.Graph
	Source graph.VertexID // SSSP source
	// Ratings is set for the CF datasets.
	Ratings *gen.Ratings
	Users   int
	Prods   int
}

// FriendsterSim is the Friendster stand-in: a directed weighted
// power-law graph (65M nodes / 1.8B edges in the paper, scaled down
// here). Low diameter, heavy-tailed degrees.
func FriendsterSim(scale int) Dataset {
	n := 30000 * scale
	return Dataset{
		Name:   "friendster-sim",
		Graph:  gen.PowerLaw(n, 8, 2.1, true, 101),
		Source: 0,
	}
}

// TrafficSim is the US-road-network stand-in: an undirected weighted
// grid. High diameter, uniform degree — the workload where vertex-centric
// label correcting is weakest.
func TrafficSim(scale int) Dataset {
	side := 160 * scale
	return Dataset{
		Name:   "traffic-sim",
		Graph:  gen.Grid(side, side, 103),
		Source: 0,
	}
}

// UKWebSim is the UKWeb stand-in: a denser directed power-law graph.
func UKWebSim(scale int) Dataset {
	n := 40000 * scale
	return Dataset{
		Name:   "ukweb-sim",
		Graph:  gen.PowerLaw(n, 14, 2.0, false, 107),
		Source: 0,
	}
}

// MovieLensSim is the movieLens stand-in bipartite rating graph.
func MovieLensSim(scale int) Dataset {
	users, prods := 2000*scale, 300
	r := gen.Bipartite(users, prods, 12, 8, 0.9, 109)
	return Dataset{Name: "movielens-sim", Graph: r.G, Ratings: r, Users: users, Prods: prods}
}

// NetflixSim is the Netflix stand-in bipartite rating graph.
func NetflixSim(scale int) Dataset {
	users, prods := 5000*scale, 600
	r := gen.Bipartite(users, prods, 16, 8, 0.9, 113)
	return Dataset{Name: "netflix-sim", Graph: r.G, Ratings: r, Users: users, Prods: prods}
}

// SyntheticSim is the GTgraph stand-in used by the scale-up and
// large-scale experiments: a power-law graph sized proportionally to the
// worker count (the paper uses up to 300M vertices / 10B edges).
func SyntheticSim(workers, scale int) Dataset {
	n := 400 * workers * scale
	return Dataset{
		Name:   fmt.Sprintf("synthetic-%dw", workers),
		Graph:  gen.PowerLaw(n, 8, 2.1, true, int64(127+workers)),
		Source: 0,
	}
}
