// Social: community and influence analysis on a social network — the
// Friendster-style workload of the paper's introduction.
//
// The example generates a power-law social graph, then runs connected
// components (community detection) and PageRank (influence ranking)
// under AAP on the concurrent engine, reporting the communication the
// incremental IncEval saves compared to a vertex-centric baseline on the
// same graph.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
	"aap/internal/vcentric"
)

func main() {
	g := gen.PowerLaw(20000, 8, 2.1, false, 42)
	fmt.Printf("social network: %d users, %d follows\n", g.NumVertices(), g.NumEdges())

	// Round-trip through the on-disk format: production inputs arrive as
	// edge-list files, so run the same bytes→graph path — the chunked
	// parallel loader — and continue on the reloaded graph.
	f, err := os.CreateTemp("", "social-sim-*.txt")
	if err != nil {
		log.Fatal(err)
	}
	path := f.Name()
	defer os.Remove(path)
	// log.Fatal exits without running deferred cleanup, so failures
	// after this point remove the temp file explicitly.
	fatal := func(err error) {
		os.Remove(path)
		log.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	g, err = graph.ReadEdgeListFile(path)
	if err != nil {
		fatal(err)
	}
	secs := time.Since(t0).Seconds()
	fmt.Printf("reloaded from disk: %.1f MB in %.3fs (%s)\n\n",
		float64(fi.Size())/(1<<20), secs, graph.Throughput(fi.Size(), g.NumEdges(), secs))

	und := graph.AsUndirected(g)
	p, err := partition.Build(und, 8, partition.BFSLocality{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Communities via CC.
	res, err := core.Run(p, cc.Job(), core.Options{Mode: core.AAP})
	if err != nil {
		log.Fatal(err)
	}
	sizes := map[int64]int{}
	for _, cid := range res.Values {
		sizes[cid]++
	}
	largest := 0
	for _, n := range sizes {
		if n > largest {
			largest = n
		}
	}
	fmt.Printf("communities: %d components, largest holds %.1f%% of users\n",
		len(sizes), 100*float64(largest)/float64(und.NumVertices()))
	fmt.Printf("  GRAPE+ CC: %.3fs, %d messages, %.2f MB shipped\n\n",
		res.Stats.Seconds, res.Stats.TotalMsgs, float64(res.Stats.TotalBytes)/(1<<20))

	// Influence via PageRank on the directed graph.
	pd, err := partition.Build(g, 8, partition.BFSLocality{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	pr, err := core.Run(pd, pagerank.Job(pagerank.Config{Tol: 1e-6}), core.Options{Mode: core.AAP})
	if err != nil {
		log.Fatal(err)
	}
	type ranked struct {
		id    graph.VertexID
		score float64
	}
	top := make([]ranked, 0, pd.G.NumVertices())
	for v, s := range pr.Values {
		top = append(top, ranked{pd.G.IDOf(int32(v)), s})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].score > top[j].score })
	fmt.Println("top influencers (PageRank under AAP):")
	for _, r := range top[:5] {
		fmt.Printf("  user %-6d score %.2f\n", r.id, r.score)
	}
	fmt.Printf("  GRAPE+ PageRank: %.3fs, %.2f MB shipped\n\n", pr.Stats.Seconds, float64(pr.Stats.TotalBytes)/(1<<20))

	// The vertex-centric baseline — the same engine running a vertex
	// program under AP — ships one message per edge per update.
	vc, err := core.Run(pd, vcentric.Job(vcentric.PageRankProgram{Tol: 1e-6}), core.Options{Mode: core.AP})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vertex-centric async PageRank on the same graph: %.3fs, %.2f MB shipped (%0.fx the traffic)\n",
		vc.Stats.Seconds, float64(vc.Stats.TotalBytes)/(1<<20), float64(vc.Stats.TotalBytes)/float64(pr.Stats.TotalBytes))
}
