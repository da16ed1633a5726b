package algo_test

// Kernel benchmarks: PEval-to-local-fixpoint on one fragment, the
// per-round scaling axis PR 4 recorded (docs/bench-history.md). Shard
// rows beyond the core count measure fan-out overhead, not speedup.

import (
	"fmt"
	"math"
	"testing"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
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

func BenchmarkKernelSSSP(b *testing.B) {
	g := gen.PowerLaw(40000, 8, 2.1, true, 5)
	p := benchFragment(b, g)
	b.Run("ref", func(b *testing.B) { benchKernel(b, p, sssp.RefJob(0)) })
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) { benchKernel(b, p, sssp.JobShards(0, k)) })
	}
}

// BenchmarkKernelSSSPDelta is the bucket-width axis on the two graph
// families a weight heuristic used to tell apart — a high-diameter road
// fragment and a low-diameter power-law one: sequential Dijkstra against
// the bucketed kernel at Delta = the mean weight (production) and +Inf
// (one bucket, the Bellman-Ford frontier order), shards = 1. The
// relaxations/op metric is what the widths trade; ns/op shows that the
// production row beats Dijkstra on both families and is within a few
// percent of the best width on each, which is why nothing chooses
// between kernels by weight. The last row is the bucket structure's
// worst case — a width far below the mean weight, so most buckets hold
// nothing or one vertex, with eight staging lists per bucket for
// Buckets.Advance to look through.
func BenchmarkKernelSSSPDelta(b *testing.B) {
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{
		{"road", gen.RoadNet(300, 300, 131)},
		{"powerlaw", gen.PowerLaw(300000, 8, 2.1, true, 5)},
	} {
		p := benchFragment(b, in.g)
		for _, c := range []struct {
			name string
			job  core.Job[float64]
		}{
			{"ref", sssp.RefJob(0)},
			{"delta=auto", sssp.JobShards(0, 1)},
			{"delta=inf", sssp.JobConfig(sssp.Config{Shards: 1, Delta: math.Inf(1)})},
			{"delta=0.01/shards=8", sssp.JobConfig(sssp.Config{Shards: 8, Delta: 0.01})},
		} {
			b.Run(in.name+"/"+c.name, func(b *testing.B) {
				prog, _ := benchKernel(b, p, c.job)
				b.ReportMetric(float64(prog.(core.ScanCounter).ScannedEdges()), "relaxations/op")
			})
		}
	}
}

func BenchmarkKernelCC(b *testing.B) {
	g := graph.AsUndirected(gen.PowerLaw(40000, 8, 2.1, false, 5))
	p := benchFragment(b, g)
	b.Run("ref", func(b *testing.B) { benchKernel(b, p, cc.RefJob()) })
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) { benchKernel(b, p, cc.JobShards(k)) })
	}
}

// BenchmarkKernelPageRank has two inputs. The power-law rows are the
// shard axis PR 4 recorded. The road rows are the case the engine runs
// most — a dense lattice fragment the size of one of eight fragments of
// benchmark/'s rounds_pagerank_road, at the default Tol. road/shards=1
// must not be slower than road/ref (an unsharded round costs no more than
// the reference's). Staging does not pay for itself on 2 vCPUs: on
// 2026-10-18 (commit 5d46bd7 with 32-bit CSR offsets, -benchtime=10x
// -count=3) road/shards=1, 2 and 4 took 105–112, 111–145 and 104–119
// ms/op, medians 1.11× and 1.06× shards=1; an earlier run on the same box
// read 111, 156 and 171 (1.40×, 1.53×). Nothing checks a bound on the
// ratio. work/op and rounds/op repeat exactly at a
// forced shard count — the same at every count, and at ref — so what a
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
	p := benchFragment(b, gen.PowerLaw(40000, 8, 2.1, false, 5))
	row("ref", p, pagerank.RefJob(pagerank.Config{Tol: 1e-4}))
	for _, k := range []int{1, 2, 4, 8} {
		row(fmt.Sprintf("shards=%d", k), p, pagerank.Job(pagerank.Config{Tol: 1e-4, Shards: k}))
	}
	road := benchFragment(b, gen.RoadNet(250, 245, 5))
	row("road/ref", road, pagerank.RefJob(pagerank.Config{}))
	for _, k := range []int{1, 2, 4} {
		row(fmt.Sprintf("road/shards=%d", k), road, pagerank.Job(pagerank.Config{Shards: k}))
	}
}
