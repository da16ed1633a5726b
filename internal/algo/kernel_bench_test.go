package algo_test

// Kernel benchmarks: PEval-to-local-fixpoint on one fragment; SSSP and
// CC against their single-threaded oracles in ref, Dijkstra and union-find
// over the same graph (docs/bench-history.md has the rows).

import (
	"math"
	"testing"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

func benchFragment(b *testing.B, g *graph.Graph) *partition.Partitioned {
	b.Helper()
	p, err := partition.Build(g, 1, partition.Hash{})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchKernel times PEval to the local fixpoint and returns the last
// iteration's program and reported work, for rows that report counters.
func benchKernel[T any](b *testing.B, p *partition.Partitioned, job core.Job[T]) (prog core.Program[T], work int64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog = job.New(p.Frags[0])
		ctx := core.NewEngineContext[T](p.Frags[0], 1)
		prog.PEval(ctx)
		_, work = ctx.TakeOut()
	}
	return prog, work
}

// benchRow is one kernel row with the work its last PEval reported.
func benchRow[T any](b *testing.B, name string, p *partition.Partitioned, job core.Job[T]) {
	b.Run(name, func(b *testing.B) {
		_, work := benchKernel(b, p, job)
		b.ReportMetric(float64(work), "work/op")
	})
}

// benchDijkstra is the ref row of an SSSP benchmark: it times ref.SSSP
// from vertex 0 over p.G and reports the edges it scans as unit.
func benchDijkstra(b *testing.B, p *partition.Partitioned, name, unit string) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref.SSSP(p.G, 0)
		}
		b.ReportMetric(float64(dijkstraScans(p.G)), unit)
	})
}

func BenchmarkKernelSSSP(b *testing.B) {
	p := benchFragment(b, gen.PowerLaw(40000, 8, 2.1, true, 5))
	benchDijkstra(b, p, "ref", "work/op")
	benchRow(b, "kernel", p, sssp.Job(0))
}

// BenchmarkKernelSSSPDelta is the bucket-width axis on the two graph
// families a weight heuristic used to tell apart — a high-diameter road
// fragment and a low-diameter power-law one: Dijkstra (ref.SSSP) against
// the bucketed kernel at Delta = the mean weight (production) and +Inf
// (one bucket, the Bellman-Ford frontier order). The relaxations/op
// metric is what the widths trade; ns/op shows that the production row
// beats Dijkstra on both families and is within a few percent of the
// best width on each, which is why nothing chooses between kernels by
// weight. The last row is the bucket structure's worst case — a width
// far below the mean weight, so most buckets hold nothing or one vertex
// for Buckets.Advance to look through.
func BenchmarkKernelSSSPDelta(b *testing.B) {
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{
		{"road", gen.RoadNet(300, 300, 131)},
		{"powerlaw", gen.PowerLaw(300000, 8, 2.1, true, 5)},
	} {
		p := benchFragment(b, in.g)
		benchDijkstra(b, p, in.name+"/ref", "relaxations/op")
		for _, c := range []struct {
			name string
			job  core.Job[float64]
		}{
			{"delta=auto", sssp.Job(0)},
			{"delta=inf", sssp.JobConfig(sssp.Config{Delta: math.Inf(1)})},
			{"delta=0.01", sssp.JobConfig(sssp.Config{Delta: 0.01})},
		} {
			b.Run(in.name+"/"+c.name, func(b *testing.B) {
				prog, _ := benchKernel(b, p, c.job)
				b.ReportMetric(float64(prog.(core.ScanCounter).ScannedEdges()), "relaxations/op")
			})
		}
	}
}

// BenchmarkKernelCC times the union-find kernel's PEval against ref.CC
// over the same graph.
func BenchmarkKernelCC(b *testing.B) {
	p := benchFragment(b, graph.AsUndirected(gen.PowerLaw(40000, 8, 2.1, false, 5)))
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref.CC(p.G)
		}
	})
	benchRow(b, "kernel", p, cc.Job())
}

// BenchmarkKernelPageRank has two inputs: a power-law fragment, and a
// dense lattice fragment the size of one of eight fragments of
// benchmark/'s rounds_pagerank_road, at the default Tol — the case the
// engine runs most. work/op and rounds/op repeat exactly, so what a
// change to the round rule does to the work is read off as a count, not
// a timing.
func BenchmarkKernelPageRank(b *testing.B) {
	row := func(name string, p *partition.Partitioned, job core.Job[float64]) {
		b.Run(name, func(b *testing.B) {
			prog, work := benchKernel(b, p, job)
			b.ReportMetric(float64(work), "work/op")
			b.ReportMetric(float64(prog.(interface{ KernelRounds() int }).KernelRounds()), "rounds/op")
		})
	}
	row("kernel", benchFragment(b, gen.PowerLaw(40000, 8, 2.1, false, 5)), pagerank.Job(pagerank.Config{Tol: 1e-4}))
	row("road/kernel", benchFragment(b, gen.RoadNet(250, 245, 5)), pagerank.Job(pagerank.Config{}))
}
