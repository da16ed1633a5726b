package algo_test

// Kernel benchmarks: PEval-to-local-fixpoint on one fragment, the
// per-round scaling axis PR 4 recorded (docs/bench-history.md). Shard
// rows beyond the core count measure fan-out overhead, not speedup.

import (
	"fmt"
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

func benchKernel[T any](b *testing.B, p *partition.Partitioned, job core.Job[T]) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog := job.New(p.Frags[0])
		ctx := core.NewEngineContext[T](p.Frags[0], 1)
		prog.PEval(ctx)
		ctx.TakeOut()
	}
}

func BenchmarkKernelSSSP(b *testing.B) {
	g := gen.PowerLaw(40000, 8, 2.1, true, 5)
	p := benchFragment(b, g)
	b.Run("ref", func(b *testing.B) { benchKernel(b, p, sssp.RefJob(0)) })
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) { benchKernel(b, p, sssp.JobShards(0, k)) })
	}
}

// BenchmarkKernelSSSPDelta is the delta axis on the road-network
// stand-in: the Bellman-Ford-ordered frontier sweep against the
// bucketed kernel at tiny/auto/huge bucket widths — relaxation counts,
// not just wall time, are what the widths trade (see aapbench -exp
// compute for the counters).
func BenchmarkKernelSSSPDelta(b *testing.B) {
	g := gen.RoadNet(150, 150, 131)
	p := benchFragment(b, g)
	b.Run("frontier", func(b *testing.B) {
		benchKernel(b, p, sssp.JobConfig(sssp.Config{Kernel: sssp.KernelFrontier, Shards: 1}))
	})
	for _, d := range []struct {
		name  string
		delta float64
	}{{"tiny", 0.02}, {"auto", 0}, {"huge", 1e18}} {
		b.Run("delta="+d.name, func(b *testing.B) {
			benchKernel(b, p, sssp.JobConfig(sssp.Config{Kernel: sssp.KernelBuckets, Shards: 1, Delta: d.delta}))
		})
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
// benchmark/'s rounds_pagerank_road, at the default Tol — and exist to
// keep "an unsharded round costs no more than the reference's" a
// visible row: road/shards=1 must not be slower than road/ref.
func BenchmarkKernelPageRank(b *testing.B) {
	p := benchFragment(b, gen.PowerLaw(40000, 8, 2.1, false, 5))
	b.Run("ref", func(b *testing.B) { benchKernel(b, p, pagerank.RefJob(pagerank.Config{Tol: 1e-4})) })
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			benchKernel(b, p, pagerank.Job(pagerank.Config{Tol: 1e-4, Shards: k}))
		})
	}
	road := benchFragment(b, gen.RoadNet(250, 245, 5))
	b.Run("road/ref", func(b *testing.B) { benchKernel(b, road, pagerank.RefJob(pagerank.Config{})) })
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("road/shards=%d", k), func(b *testing.B) {
			benchKernel(b, road, pagerank.Job(pagerank.Config{Shards: k}))
		})
	}
}
