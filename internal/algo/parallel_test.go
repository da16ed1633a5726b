package algo_test

// Differential tests of the kernels: every kernel must be bit-identical
// to its oracle — SSSP's and PageRank's retained reference kernels
// (RefJob), CC's ref.CC — at the program level (one fragment, PEval to
// local fixpoint) and end to end through the deterministic virtual-time
// simulator (many fragments, real message traffic), plus a smoke run
// through the concurrent engine.

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
	"aap/internal/sim"
)

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
// (hubs), a grid (deep frontiers), a small
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

// pagerankGraphs are PageRank's own corpora, larger than diffGraphs':
// a lattice and a heavy-tailed graph of thousands of slots on one
// fragment, an owned count that fills its last frontier-bitmap word
// (8192), one slot past that, and a fragment whose frontier is a
// confined ring of 100 slots in the middle from round 2 on (every other
// vertex is isolated and drains in round 1).
func pagerankGraphs() map[string]*graph.Graph {
	island := graph.NewBuilder(true)
	for v := 0; v < 10000; v++ {
		island.AddVertex(graph.VertexID(v))
	}
	for v := 5000; v < 5100; v++ {
		island.AddEdge(graph.VertexID(v), graph.VertexID(5000+(v+1)%100))
		island.AddEdge(graph.VertexID(v), graph.VertexID(5000+(v*7)%100))
	}
	return map[string]*graph.Graph{
		"road150":     gen.RoadNet(150, 150, 37),
		"powerlaw20k": gen.PowerLaw(20000, 6, 2.1, false, 41),
		"twoblocks":   gen.Grid(64, 128, 43),
		"onepast":     gen.Random(8193, 30000, false, 47),
		"island":      island.Build(),
	}
}

// TestSSSPParallelKernelMatchesRef: program-level differential — the
// bucketed sweep against Dijkstra on one fragment (delta_test.go adds
// the bucket-width axis).
func TestSSSPParallelKernelMatchesRef(t *testing.T) {
	for name, g := range diffGraphs() {
		p, err := partition.Build(g, 1, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		bitsEqualF64(t, "sssp/"+name, peval(t, p, sssp.Job(0)), peval(t, p, sssp.RefJob(0)))
		if r := kernelRounds(t, p, sssp.Job(0)); r <= 0 {
			t.Fatalf("sssp/%s reported %d kernel rounds", name, r)
		}
	}
}

// TestSSSPJobBelowGrainRunsBucketedKernel: sssp.Job builds the bucketed
// kernel for a small fragment (784 vertices), where it once fell back to
// Dijkstra, and its answer is the reference's bit for bit.
func TestSSSPJobBelowGrainRunsBucketedKernel(t *testing.T) {
	g := gen.Grid(28, 28, 13)
	p, err := partition.Build(g, 1, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	f := p.Frags[0]
	if _, ok := sssp.Job(0).New(f).(interface{ BucketsDrained() int }); !ok {
		t.Fatalf("sssp.Job built %T below the grain, want the bucketed kernel", sssp.Job(0).New(f))
	}
	bitsEqualF64(t, "sssp/below-grain", peval(t, p, sssp.Job(0)), peval(t, p, sssp.RefJob(0)))
}

// TestCCParallelKernelMatchesRef: the union-find kernel on one fragment
// against ref.CC. p.G numbers the vertices of the partitioned graph, and
// ref.CC labels a component by its minimum external id, so the two
// vectors line up index for index.
func TestCCParallelKernelMatchesRef(t *testing.T) {
	for name, g := range diffGraphs() {
		p, err := partition.Build(graph.AsUndirected(g), 1, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		equalI64(t, "cc/"+name, peval(t, p, cc.Job()), ref.CC(p.G))
	}
}

// TestPageRankParallelKernelMatchesRef: the kernel's bitmap frontier
// must replay the reference's contribution order exactly — a sum
// fixpoint, so any reordering would change low-order bits and fail this
// test. The tight tolerance is the long-tail case: hundreds of rounds
// after the bulk has converged.
func TestPageRankParallelKernelMatchesRef(t *testing.T) {
	graphs := diffGraphs()
	for name, g := range pagerankGraphs() {
		graphs[name] = g
	}
	for name, g := range graphs {
		p, err := partition.Build(g, 1, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tol := range []float64{1e-6, 1e-10} {
			want := peval(t, p, pagerank.RefJob(pagerank.Config{Tol: tol}))
			got := peval(t, p, pagerank.Job(pagerank.Config{Tol: tol}))
			bitsEqualF64(t, fmt.Sprintf("pagerank/%s/tol=%g", name, tol), got, want)
		}
		if r := kernelRounds(t, p, pagerank.Job(pagerank.Config{})); r <= 0 {
			t.Fatalf("pagerank/%s reported %d kernel rounds", name, r)
		}
	}
}

// TestPageRankWorkOnRoadLattice pins Gauss–Seidel against Jacobi as a
// count. Consume-everything-then-push (Jacobi) needs
// ⌈ln(Tol/(1-d)) / ln d⌉ = 74 full sweeps of the fragment at the default
// Tol and did 75.5 sweeps' worth of work on this lattice; pushing at
// once (Gauss–Seidel) contracts about twice as fast per sweep and does
// 40.9. The kernel does the reference's work to the unit, like the bits.
func TestPageRankWorkOnRoadLattice(t *testing.T) {
	p, err := partition.Build(pagerankGraphs()["road150"], 1, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	f := p.Frags[0]
	sweep := f.Graph().OutSpan(f.Lo, f.Hi) + int64(f.NumOwned())
	jacobi := math.Ceil(math.Log(1e-6/(1-0.85)) / math.Log(0.85))
	limit := int64(0.65 * jacobi * float64(sweep))
	work := func(job core.Job[float64]) int64 {
		ctx := core.NewEngineContext[float64](f, 1)
		job.New(f).PEval(ctx)
		_, w := ctx.TakeOut()
		return w
	}
	want := work(pagerank.RefJob(pagerank.Config{}))
	if want > limit {
		t.Errorf("PEval reported %d work units = %.1f sweeps of %d, want at most 0.65 × %v sweeps = %d",
			want, float64(want)/float64(sweep), sweep, jacobi, limit)
	}
	if got := work(pagerank.Job(pagerank.Config{})); got != want {
		t.Errorf("the kernel reported %d work units, the reference %d", got, want)
	}
}

// pagerankKernel is what the snapshot tests need of either kernel.
type pagerankKernel interface {
	core.Program[float64]
	core.Snapshotter
}

// pagerankCases are the kernels the multi-fragment PageRank tests drive:
// the reference and the kernel.
var pagerankCases = []struct {
	name string
	job  core.Job[float64]
}{
	{"ref", pagerank.RefJob(pagerank.Config{})},
	{"kernel", pagerank.Job(pagerank.Config{})},
}

// buildPageRank builds one program and engine context per fragment.
func buildPageRank(p *partition.Partitioned, job core.Job[float64]) ([]pagerankKernel, []*core.Context[float64]) {
	progs := make([]pagerankKernel, p.M)
	ctxs := make([]*core.Context[float64], p.M)
	for i, f := range p.Frags {
		progs[i] = job.New(f).(pagerankKernel)
		ctxs[i] = core.NewEngineContext[float64](f, p.M)
	}
	return progs, ctxs
}

// pevalAll runs every fragment's PEval and returns the inboxes of the
// first superstep and the work reported.
func pevalAll(progs []pagerankKernel, ctxs []*core.Context[float64]) ([][]core.VMsg[float64], int64) {
	inbox := make([][]core.VMsg[float64], len(progs))
	var work int64
	for i := range progs {
		progs[i].PEval(ctxs[i])
		out, w := ctxs[i].TakeOut()
		work += w
		for j, ms := range out {
			inbox[j] = append(inbox[j], ms...)
		}
	}
	return inbox, work
}

func snapshotAll(progs []pagerankKernel) [][]byte {
	snaps := make([][]byte, len(progs))
	for i := range progs {
		snaps[i] = progs[i].SnapshotState()
	}
	return snaps
}

// hasWake reports whether some fragment's inbox holds the zero delta it
// sent itself (pagerank's flush never ships a zero, so a zero is a wake).
func hasWake(p *partition.Partitioned, inbox [][]core.VMsg[float64]) bool {
	for i, msgs := range inbox {
		for _, m := range msgs {
			if m.Val == 0 && m.V == p.Frags[i].Lo {
				return true
			}
		}
	}
	return false
}

// onePEvalWork is the work of one fragment's PEval over all of g: the
// one-fragment solve the multi-fragment work counts are measured against.
func onePEvalWork(t *testing.T, g *graph.Graph) int64 {
	t.Helper()
	one, err := partition.Build(g, 1, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewEngineContext[float64](one.Frags[0], 1)
	pagerank.RefJob(pagerank.Config{}).New(one.Frags[0]).PEval(ctx)
	_, work := ctx.TakeOut()
	return work
}

// residualAbove returns the first owned slot of f whose pending delta in
// a kernel snapshot exceeds tol, or -1.
func residualAbove(t *testing.T, f *partition.Fragment, snap []byte, tol float64) (int, float64) {
	t.Helper()
	r := codec.NewReader(snap)
	r.Float64s()
	delta := r.Float64s()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for s, x := range delta[:f.NumOwned()] {
		if x > tol {
			return s, x
		}
	}
	return -1, 0
}

// multiFragmentWork runs every kernel of pagerankCases over p through the
// barrier superstep harness and returns the work they report, which must
// be one count. Every kernel must end in the same bits, with every owned
// residual at most Tol.
func multiFragmentWork(t *testing.T, p *partition.Partitioned) int64 {
	t.Helper()
	const tol = 1e-6 // pagerank.Config's default
	sum := func(a, b float64) float64 { return a + b }
	var want [][]byte
	var count int64
	for _, c := range pagerankCases {
		progs, ctxs := buildPageRank(p, c.job)
		inbox, work := pevalAll(progs, ctxs)
		for active := true; active; {
			var w int64
			inbox, active, w = superstep(progs, ctxs, inbox, sum)
			work += w
		}
		end := snapshotAll(progs)
		if want == nil {
			want, count = end, work
		}
		if work != count {
			t.Errorf("%s: %d fragments did %d work units, ref %d", c.name, p.M, work, count)
		}
		for i, f := range p.Frags {
			if !bytes.Equal(end[i], want[i]) {
				t.Errorf("%s: fragment %d final state differs from ref", c.name, i)
			}
			if s, x := residualAbove(t, f, end[i], tol); s >= 0 {
				t.Errorf("%s: fragment %d slot %d ends with residual %g > Tol", c.name, i, s, x)
			}
		}
	}
	return count
}

// TestPageRankMultiFragmentWork pins PageRank's multi-fragment work on a
// road lattice as a count. Re-converging every fragment to Tol on every
// superstep, while boundary mass still arrives in bulk, did 3.28× the
// one-fragment PEval work at 4 fragments. An IncEval that pushes only
// deltas above 1/32 of its largest incoming one and wakes itself for the
// rest did 1.48×, while PEval still solved its fragment to Tol before any
// border mass had arrived. A PEval that runs at the same threshold, with
// the seed as its largest delta, and wakes itself the same way does
// 1.16×. The run must still end with every owned residual at most Tol and
// the same bits in both kernels.
func TestPageRankMultiFragmentWork(t *testing.T) {
	g := pagerankGraphs()["road150"]
	single := onePEvalWork(t, g)
	p, err := partition.Build(g, 4, partition.BFSLocality{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	work := multiFragmentWork(t, p)
	ratio := float64(work) / float64(single)
	t.Logf("%d fragments: %d work units = %.2f× one fragment's PEval (%d)", p.M, work, ratio, single)
	if ratio > 1.2 {
		t.Errorf("%d fragments did %.2f× the work of one (%d vs %d), want at most 1.2×", p.M, ratio, work, single)
	}
}

// TestPageRankHashFragmentWork pins the work of hash fragments on a
// power-law graph, where nearly every edge crosses a fragment boundary,
// as exact counts at 2, 8 and 32 fragments. It is an open gap: the
// kernels do 2.81×, 4.24× and 3.04× one fragment's 6.63 M work units
// (18.66 M, 28.12 M and 20.19 M). The multi-fragment counts are what a
// change that closes part of the gap lowers; the one-fragment count is
// pinned too, so that the ratios move only with a logged reason.
func TestPageRankHashFragmentWork(t *testing.T) {
	g := gen.PowerLaw(20000, 8, 2.1, false, 7)
	single := onePEvalWork(t, g)
	if single != 6633312 {
		t.Errorf("one fragment's PEval did %d work units, pinned 6633312", single)
	}
	for _, c := range []struct {
		m    int
		work int64
	}{{2, 18661048}, {8, 28120846}, {32, 20186758}} {
		t.Run(fmt.Sprintf("m=%d", c.m), func(t *testing.T) {
			t.Parallel()
			p, err := partition.Build(g, c.m, partition.Hash{})
			if err != nil {
				t.Fatal(err)
			}
			work := multiFragmentWork(t, p)
			t.Logf("%d hash fragments: %d work units = %.2f× one fragment's PEval (%d)", c.m, work, float64(work)/float64(single), single)
			if work != c.work {
				t.Errorf("%d hash fragments did %d work units, pinned %d", c.m, work, c.work)
			}
		})
	}
}

// TestPageRankWakesFromPEval: fragment 0 owns one copy of a road
// lattice, with edges into fragment 1's copy and none back, so no mass
// ever arrives at it from elsewhere. Its PEval runs at the coarse
// threshold of a multi-fragment run, and only the wake it sends itself
// runs it again, at Tol. The run must still end with every owned
// residual at most Tol and match power iteration within 1e-4, under the
// real engine and in virtual time.
func TestPageRankWakesFromPEval(t *testing.T) {
	half := gen.RoadNet(30, 30, 59)
	n := half.NumVertices()
	b := graph.NewBuilder(true)
	for v := range 2 * n {
		b.AddVertex(graph.VertexID(v))
	}
	for c := range 2 {
		for v := range int32(n) {
			for _, u := range half.Out(v) {
				b.AddEdge(graph.VertexID(c*n+int(v)), graph.VertexID(c*n+int(u)))
			}
		}
	}
	for v := 0; v < n; v += 10 {
		b.AddEdge(graph.VertexID(v), graph.VertexID(n+v))
	}
	g := b.Build()
	p, err := partition.Build(g, 2, partition.Range{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Frags[0].InBorder()) != 0 || len(p.Frags[1].InBorder()) == 0 {
		t.Fatalf("in-borders of %d and %d vertices, want none and some", len(p.Frags[0].InBorder()), len(p.Frags[1].InBorder()))
	}
	const tol = 1e-6 // pagerank.Config's default
	want := ref.PageRank(g, 0.85, 1e-12, 10000)
	for _, driver := range []string{"Run", "Simulate"} {
		var mu sync.Mutex
		progs := make([]pagerankKernel, p.M)
		job := pagerank.Job(pagerank.Config{})
		build := job.New
		job.New = func(f *partition.Fragment) core.Program[float64] {
			prog := build(f)
			mu.Lock()
			progs[f.ID] = prog.(pagerankKernel)
			mu.Unlock()
			return prog
		}
		var values []float64
		if driver == "Run" {
			res, err := core.Run(p, job, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			values = res.Values
		} else {
			values = simValues(t, p, job)
		}
		for i, f := range p.Frags {
			if s, x := residualAbove(t, f, progs[i].SnapshotState(), tol); s >= 0 {
				t.Errorf("%s: fragment %d slot %d ends with residual %g > Tol", driver, i, s, x)
			}
		}
		for v, got := range values {
			orig, _ := g.IndexOf(p.G.IDOf(int32(v)))
			if d := math.Abs(got - want[orig]); d > 1e-4 {
				t.Errorf("%s: vertex %d: %v, power iteration %v", driver, v, got, want[orig])
				break
			}
		}
	}
}

// TestPageRankSnapshotResumes: a snapshot taken at an engine round
// boundary mid-run — messages in flight, fragments of thousands of slots
// still trading shares — restored into fresh programs (a replaced
// worker) and into the finished live ones (a rollback) continues to the
// bits of the uninterrupted run, final state included. The frontier is
// empty at that boundary, so it is not in the snapshot: the kernel's
// bytes equal the reference kernel's, whose state is score, delta and
// the round count. Two more
// cuts hold a fragment's wake to itself in flight: the one right after
// PEval, which parks the residual below its coarse threshold, and the
// first superstep whose outbox holds a wake. The parked residual is in
// the snapshot's deltas and the wake is a message in flight like any
// other, so no new state is needed.
func TestPageRankSnapshotResumes(t *testing.T) {
	p, err := partition.Build(pagerankGraphs()["road150"], 2, partition.Range{})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(a, b float64) float64 { return a + b }
	type cut struct {
		name  string
		snap  [][]byte
		inbox [][]core.VMsg[float64]
	}
	clone := func(inbox [][]core.VMsg[float64]) [][]core.VMsg[float64] {
		c := make([][]core.VMsg[float64], len(inbox))
		for i := range inbox {
			c[i] = slices.Clone(inbox[i])
		}
		return c
	}
	var refCuts []cut
	var refEnd [][]byte
	for _, c := range pagerankCases {
		finish := func(progs []pagerankKernel, ctxs []*core.Context[float64], inbox [][]core.VMsg[float64]) [][]byte {
			for active := true; active; {
				inbox, active, _ = superstep(progs, ctxs, inbox, sum)
			}
			return snapshotAll(progs)
		}
		equal := func(tag string, got, want [][]byte) {
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("%s/%s: fragment %d state differs", c.name, tag, i)
				}
			}
		}

		live, liveCtxs := buildPageRank(p, c.job)
		inbox, _ := pevalAll(live, liveCtxs)
		if !hasWake(p, inbox) {
			t.Fatalf("%s: no fragment woke itself from PEval", c.name)
		}
		cuts := []cut{{"after-peval", snapshotAll(live), clone(inbox)}}
		wake := false
		for step, active := 1, true; active; step++ {
			inbox, active, _ = superstep(live, liveCtxs, inbox, sum)
			if step == 2 {
				if len(inbox[0]) == 0 || len(inbox[1]) == 0 {
					t.Fatalf("%s: snapshot is not mid-run: %d and %d messages pending", c.name, len(inbox[0]), len(inbox[1]))
				}
				cuts = append(cuts, cut{"mid-run", snapshotAll(live), clone(inbox)})
			}
			if !wake && hasWake(p, inbox) {
				wake = true
				cuts = append(cuts, cut{fmt.Sprintf("wake@%d", step), snapshotAll(live), clone(inbox)})
			}
		}
		if !wake {
			t.Fatalf("%s: no fragment ever woke itself", c.name)
		}
		end := snapshotAll(live)
		if refCuts == nil {
			refCuts, refEnd = cuts, end
		}
		equal("uninterrupted vs ref", end, refEnd)
		for i, cu := range cuts {
			if cu.name != refCuts[i].name {
				t.Fatalf("%s: cut %s where ref cut %s", c.name, cu.name, refCuts[i].name)
			}
			equal(cu.name+" vs ref", cu.snap, refCuts[i].snap)
			fresh, freshCtxs := buildPageRank(p, c.job)
			for i := range live {
				if err := fresh[i].RestoreState(cu.snap[i]); err != nil {
					t.Fatal(err)
				}
				if err := live[i].RestoreState(cu.snap[i]); err != nil {
					t.Fatal(err)
				}
			}
			equal(cu.name+"/fresh", finish(fresh, freshCtxs, clone(cu.inbox)), end)
			equal(cu.name+"/rollback", finish(live, liveCtxs, clone(cu.inbox)), end)
		}
	}
}

// simValues runs a job under the deterministic virtual-time simulator
// and returns the assembled values.
func simValues[T any](t *testing.T, p *partition.Partitioned, job core.Job[T]) []T {
	t.Helper()
	res, err := sim.Run(p, job, sim.Config{Options: core.Options{Mode: core.AAP}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Values
}

// TestParallelKernelsMatchRefUnderSim: end-to-end differential through
// the simulator with real multi-fragment message traffic. SSSP and CC
// converge to unique exact-min fixpoints, so kernel and oracle runs must
// agree bitwise even though their round structures differ. PageRank's
// kernel and reference kernel send the same messages every round, so
// they agree bitwise too.
func TestParallelKernelsMatchRefUnderSim(t *testing.T) {
	g := gen.PowerLaw(500, 5, 2.1, true, 23)
	und := graph.AsUndirected(g)
	corpora := pagerankGraphs()
	for _, m := range []int{2, 5} {
		p, err := partition.Build(g, m, partition.BFSLocality{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		pu, err := partition.Build(und, m, partition.BFSLocality{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}

		bitsEqualF64(t, fmt.Sprintf("sim/sssp/m=%d", m),
			simValues(t, p, sssp.Job(0)), simValues(t, p, sssp.RefJob(0)))
		equalI64(t, fmt.Sprintf("sim/cc/m=%d", m), simValues(t, pu, cc.Job()), ref.CC(pu.G))

		// PageRank also on the road lattice, whose fragments keep
		// trading small deltas long after the bulk has converged.
		road, err := partition.Build(gen.RoadNet(23, 19, 19), m, partition.BFSLocality{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		type prInput struct {
			name string
			p    *partition.Partitioned
			tol  float64
		}
		inputs := []prInput{{"powerlaw", p, 1e-8}, {"road", road, 1e-8}}
		if m == 2 {
			// Fragments of thousands of slots each (the long tail is the
			// small inputs' and the program-level test's; the default Tol
			// keeps this one short under -race).
			for _, name := range []string{"road150", "powerlaw20k"} {
				pp, err := partition.Build(corpora[name], m, partition.BFSLocality{Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				inputs = append(inputs, prInput{name, pp, 1e-6})
			}
		}
		for _, in := range inputs {
			bitsEqualF64(t, fmt.Sprintf("sim/pagerank/%s/m=%d", in.name, m),
				simValues(t, in.p, pagerank.Job(pagerank.Config{Tol: in.tol})),
				simValues(t, in.p, pagerank.RefJob(pagerank.Config{Tol: in.tol})))
		}
	}
}

// TestParallelKernelsUnderEngine: smoke the kernels through the real
// concurrent engine (sends racing with other workers' deliveries under
// -race in CI) against the single-threaded oracles.
func TestParallelKernelsUnderEngine(t *testing.T) {
	g := gen.PowerLaw(400, 5, 2.1, true, 31)
	p, err := partition.Build(g, 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	wantS := ref.SSSP(g, 0)
	res, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP})
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
	resC, err := core.Run(pu, cc.Job(), core.Options{Mode: core.AAP})
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
	// above is the race detector watching the kernel's rounds under real
	// concurrency. The second input gives each of two fragments thousands
	// of slots.
	road := pagerankGraphs()["road150"]
	proad, err := partition.Build(road, 2, partition.Range{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name string
		g    *graph.Graph
		p    *partition.Partitioned
	}{{"powerlaw", g, p}, {"road150", road, proad}} {
		wantP := ref.PageRank(in.g, 0.85, 1e-10, 1000)
		resP, err := core.Run(in.p, pagerank.Job(pagerank.Config{Tol: 1e-10}), core.Options{Mode: core.AAP})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < in.g.NumVertices(); v++ {
			id := in.p.G.IDOf(int32(v))
			orig, _ := in.g.IndexOf(id)
			if d := math.Abs(resP.Values[v] - wantP[orig]); d > 1e-6 {
				t.Fatalf("engine pagerank %s vertex %d: |Δ|=%g", in.name, id, d)
			}
		}
	}
}
