package algo_test

// Differential tests of the frontier-parallel compute plane: every
// parallel kernel, forced to shard counts {1, 2, 3, 8}, must be
// bit-identical to its retained sequential reference — at the program
// level (one fragment, PEval to local fixpoint) and end to end through
// the deterministic virtual-time simulator (many fragments, real
// message traffic), plus a smoke run through the concurrent engine.

import (
	"fmt"
	"math"
	"testing"

	"aap/internal/algo/cc"
	"aap/internal/algo/cf"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
	"aap/internal/sim"
)

// kernelShardCounts is the forced-shard axis of every differential test.
var kernelShardCounts = []int{1, 2, 3, 8}

// bitsEqualF64 compares float64 slices bitwise (±0 and NaN differences
// surface).
func bitsEqualF64(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: index %d: got %v (%#x) want %v (%#x)",
				tag, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func equalI64(t *testing.T, tag string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d: got %d want %d", tag, i, got[i], want[i])
		}
	}
}

// peval runs a job's program on a single-fragment partition to its local
// fixpoint and collects the owned values — the kernel in isolation,
// no engine scheduling involved.
func peval[T any](t *testing.T, p *partition.Partitioned, job core.Job[T]) []T {
	t.Helper()
	if p.M != 1 {
		t.Fatalf("peval wants a single-fragment partition, got %d", p.M)
	}
	f := p.Frags[0]
	prog := job.New(f)
	ctx := core.NewEngineContext[T](f, 1)
	prog.PEval(ctx)
	out, _ := ctx.TakeOut()
	for _, msgs := range out {
		if len(msgs) != 0 {
			t.Fatalf("single-fragment PEval shipped %d messages", len(msgs))
		}
	}
	vals := make([]T, p.G.NumVertices())
	for v := f.Lo; v < f.Hi; v++ {
		vals[v] = prog.Get(v)
	}
	return vals
}

// kernelRounds asserts the program behind job reports its frontier
// rounds.
func kernelRounds[T any](t *testing.T, p *partition.Partitioned, job core.Job[T]) int {
	t.Helper()
	prog := job.New(p.Frags[0])
	rr, ok := prog.(interface{ KernelRounds() int })
	if !ok {
		t.Fatalf("program %T does not report kernel rounds", prog)
	}
	ctx := core.NewEngineContext[T](p.Frags[0], 1)
	prog.PEval(ctx)
	ctx.TakeOut()
	return rr.KernelRounds()
}

// testGraphs are the shared differential corpora: a heavy-tailed graph
// (hub contention on the atomic mins), a grid (deep frontiers), a small
// random weighted graph (ragged partitions), and a road lattice (high
// diameter: PageRank's mass drains through long tails of rounds whose
// frontier is a few scattered slots). No vertex count is a multiple of
// 64, so every frontier bitmap ends in a partial word.
func diffGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"powerlaw": gen.PowerLaw(600, 6, 2.1, true, 11),
		"grid":     gen.Grid(28, 28, 13),
		"random":   gen.Random(150, 700, true, 17),
		"road":     gen.RoadNet(23, 19, 19),
	}
}

// TestSSSPParallelKernelMatchesRef: program-level differential — the
// bucketed sweep at every forced shard count against sequential
// Dijkstra on one fragment (delta_test.go adds the bucket-width axis).
func TestSSSPParallelKernelMatchesRef(t *testing.T) {
	for name, g := range diffGraphs() {
		p, err := partition.Build(g, 1, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		want := peval(t, p, sssp.RefJob(0))
		for _, k := range kernelShardCounts {
			got := peval(t, p, sssp.JobShards(0, k))
			bitsEqualF64(t, fmt.Sprintf("sssp/%s/shards=%d", name, k), got, want)
		}
		if r := kernelRounds(t, p, sssp.JobShards(0, 2)); r <= 0 {
			t.Fatalf("sssp/%s reported %d kernel rounds", name, r)
		}
	}
}

// TestCCParallelKernelMatchesRef: hook-and-shortcut label propagation
// against union-find on one fragment.
func TestCCParallelKernelMatchesRef(t *testing.T) {
	for name, g := range diffGraphs() {
		und := graph.AsUndirected(g)
		p, err := partition.Build(und, 1, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		want := peval(t, p, cc.RefJob())
		for _, k := range kernelShardCounts {
			got := peval(t, p, cc.JobShards(k))
			equalI64(t, fmt.Sprintf("cc/%s/shards=%d", name, k), got, want)
		}
		if r := kernelRounds(t, p, cc.JobShards(2)); r <= 0 {
			t.Fatalf("cc/%s reported %d kernel rounds", name, r)
		}
	}
}

// pagerankShardCounts adds the production setting (0: picked per round)
// to the forced axis: pagerank.Job builds the one kernel either way.
var pagerankShardCounts = append([]int{0}, kernelShardCounts...)

// TestPageRankParallelKernelMatchesRef: the direct push of an unsharded
// round and the (source-shard, dest-shard) staging of a sharded one
// must both replay the reference's contribution order exactly — a sum
// fixpoint, so any reordering would change low-order bits and fail this
// test. The tight tolerance is the long-tail case: hundreds of rounds
// after the bulk has converged.
func TestPageRankParallelKernelMatchesRef(t *testing.T) {
	for name, g := range diffGraphs() {
		p, err := partition.Build(g, 1, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tol := range []float64{1e-6, 1e-10} {
			want := peval(t, p, pagerank.RefJob(pagerank.Config{Tol: tol}))
			for _, k := range pagerankShardCounts {
				got := peval(t, p, pagerank.Job(pagerank.Config{Tol: tol, Shards: k}))
				bitsEqualF64(t, fmt.Sprintf("pagerank/%s/tol=%g/shards=%d", name, tol, k), got, want)
			}
		}
		if r := kernelRounds(t, p, pagerank.Job(pagerank.Config{Shards: 2})); r <= 0 {
			t.Fatalf("pagerank/%s reported %d kernel rounds", name, r)
		}
	}
}

// simValues runs a job under the deterministic virtual-time simulator
// and returns the assembled values.
func simValues[T any](t *testing.T, p *partition.Partitioned, job core.Job[T]) []T {
	t.Helper()
	res, err := sim.Run(p, job, sim.Config{Mode: core.AAP})
	if err != nil {
		t.Fatal(err)
	}
	return res.Values
}

// TestParallelKernelsMatchRefUnderSim: end-to-end differential through
// the simulator with real multi-fragment message traffic. SSSP and CC
// converge to unique exact-min fixpoints, so ref and parallel runs must
// agree bitwise even though their round structures differ. PageRank is
// compared across shard counts of the same kernel (its per-round message
// content is deterministic for any shard count); the work profile of the
// ref kernel is identical, so ref is included too.
func TestParallelKernelsMatchRefUnderSim(t *testing.T) {
	g := gen.PowerLaw(500, 5, 2.1, true, 23)
	und := graph.AsUndirected(g)
	for _, m := range []int{2, 5} {
		p, err := partition.Build(g, m, partition.BFSLocality{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		pu, err := partition.Build(und, m, partition.BFSLocality{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}

		wantS := simValues(t, p, sssp.RefJob(0))
		wantC := simValues(t, pu, cc.RefJob())
		for _, k := range kernelShardCounts {
			bitsEqualF64(t, fmt.Sprintf("sim/sssp/m=%d/shards=%d", m, k),
				simValues(t, p, sssp.JobShards(0, k)), wantS)
			equalI64(t, fmt.Sprintf("sim/cc/m=%d/shards=%d", m, k),
				simValues(t, pu, cc.JobShards(k)), wantC)
		}

		// PageRank also on the road lattice, whose fragments keep
		// trading small deltas long after the bulk has converged.
		road, err := partition.Build(gen.RoadNet(23, 19, 19), m, partition.BFSLocality{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for name, pp := range map[string]*partition.Partitioned{"powerlaw": p, "road": road} {
			wantP := simValues(t, pp, pagerank.RefJob(pagerank.Config{Tol: 1e-8}))
			for _, k := range pagerankShardCounts {
				bitsEqualF64(t, fmt.Sprintf("sim/pagerank/%s/m=%d/shards=%d", name, m, k),
					simValues(t, pp, pagerank.Job(pagerank.Config{Tol: 1e-8, Shards: k})), wantP)
			}
		}
	}
}

// TestCFStagedShipMatchesSequential: the staged parallel ship must not
// perturb training — contributions are built per copy independently and
// merged in copy order, so the trained factors are bit-identical.
func TestCFStagedShipMatchesSequential(t *testing.T) {
	r := gen.Bipartite(200, 40, 10, 4, 0.9, 29)
	p, err := partition.Build(r.G, 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	base := cf.Config{Users: 200, Products: 40, Rank: 4, Epochs: 10, Seed: 2}
	seq := base
	seq.Shards = 1
	want := simValues(t, p, cf.Job(seq))
	for _, k := range []int{2, 3, 8} {
		cfg := base
		cfg.Shards = k
		got := simValues(t, p, cf.Job(cfg))
		for v := range want {
			if got[v].Weight != want[v].Weight || len(got[v].Vec) != len(want[v].Vec) {
				t.Fatalf("cf shards=%d vertex %d: shape diverged", k, v)
			}
			for i := range want[v].Vec {
				if math.Float64bits(got[v].Vec[i]) != math.Float64bits(want[v].Vec[i]) {
					t.Fatalf("cf shards=%d vertex %d dim %d: %v != %v",
						k, v, i, got[v].Vec[i], want[v].Vec[i])
				}
			}
		}
	}
}

// TestParallelKernelsUnderEngine: smoke the parallel kernels through the
// real concurrent engine (staged sends racing with the flusher under
// -race in CI) against the single-threaded oracles.
func TestParallelKernelsUnderEngine(t *testing.T) {
	g := gen.PowerLaw(400, 5, 2.1, true, 31)
	p, err := partition.Build(g, 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	wantS := ref.SSSP(g, 0)
	res, err := core.Run(p, sssp.JobShards(0, 3), core.Options{Mode: core.AAP})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		id := p.G.IDOf(int32(v))
		orig, _ := g.IndexOf(id)
		got, w := res.Values[v], wantS[orig]
		if got != w && !(math.IsInf(got, 1) && math.IsInf(w, 1)) {
			t.Fatalf("engine sssp vertex %d: got %v want %v", id, got, w)
		}
	}

	und := graph.AsUndirected(g)
	pu, err := partition.Build(und, 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	wantC := ref.CC(und)
	resC, err := core.Run(pu, cc.JobShards(3), core.Options{Mode: core.AAP})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < und.NumVertices(); v++ {
		id := pu.G.IDOf(int32(v))
		orig, _ := und.IndexOf(id)
		if resC.Values[v] != wantC[orig] {
			t.Fatalf("engine cc vertex %d: got %d want %d", id, resC.Values[v], wantC[orig])
		}
	}

	// The engine folds messages in arrival order, so its PageRank is
	// compared within tolerance; what this adds over the bit-exact tests
	// above is the race detector watching the word-keyed apply phase and
	// the per-round shard choice under real concurrency.
	wantP := ref.PageRank(g, 0.85, 1e-10, 1000)
	for _, k := range pagerankShardCounts {
		resP, err := core.Run(p, pagerank.Job(pagerank.Config{Tol: 1e-10, Shards: k}), core.Options{Mode: core.AAP})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			id := p.G.IDOf(int32(v))
			orig, _ := g.IndexOf(id)
			if d := math.Abs(resP.Values[v] - wantP[orig]); d > 1e-6 {
				t.Fatalf("engine pagerank shards=%d vertex %d: |Δ|=%g", k, id, d)
			}
		}
	}
}
