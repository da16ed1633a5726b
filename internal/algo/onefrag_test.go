package algo_test

import (
	"testing"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
	"aap/internal/sim"
)

// oneFragmentWork checks that a one-fragment job reports the same work
// under core.Run, four times over, as under the simulator, and that the
// count is the pinned one.
func oneFragmentWork[T any](t *testing.T, p *partition.Partitioned, job core.Job[T], want int64) {
	t.Helper()
	sr, err := sim.Run(p, job, sim.Config{Options: core.Options{Mode: core.AAP}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.Stats.TotalWork; got != want {
		t.Errorf("%s: simulated work %d, pinned %d", job.Name, got, want)
	}
	for i := range 4 {
		res, err := core.Run(p, job, core.Options{Mode: core.AAP})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats.TotalWork; got != sr.Stats.TotalWork {
			t.Errorf("%s: run %d did %d work units, the simulator %d", job.Name, i, got, sr.Stats.TotalWork)
		}
	}
}

// TestOneFragmentWorkMatchesSimulator: a fragment's round runs on the
// one executor that took its task, under core.Run as under the
// simulator, so a one-fragment run reports one deterministic work count
// in both drivers, pinned here for SSSP, PageRank and CC. The fragment
// is large enough that an SSSP round split over idle cores would report
// more work than the simulator, a different amount each run.
func TestOneFragmentWorkMatchesSimulator(t *testing.T) {
	g := gen.PowerLaw(20000, 8, 2.1, true, 5)
	one := func(g *graph.Graph) *partition.Partitioned {
		p, err := partition.Build(g, 1, partition.BFSLocality{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := one(g)
	oneFragmentWork(t, p, sssp.Job(0), 174251)
	oneFragmentWork(t, p, pagerank.Job(pagerank.Config{}), 6633220)
	oneFragmentWork(t, one(graph.AsUndirected(g)), cc.Job(), 640000)
}
