package algo_test

// Differential tests of the kernels: SSSP and CC must be bit-identical
// to their oracles, Dijkstra (ref.SSSP) and ref.CC, and PageRank, whose
// sums remember their addition order, to exact pins of its bits, work
// and rounds — at the program level (one fragment, PEval to local
// fixpoint) and end to end through the deterministic virtual-time
// simulator (many fragments, real message traffic), plus a smoke run
// through the concurrent engine against the oracles.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

// runPEval runs a job's program on a single-fragment partition to its
// local fixpoint and returns the program, the owned values and the work
// it reported — the kernel in isolation, no engine scheduling involved.
func runPEval[T any](t *testing.T, p *partition.Partitioned, job core.Job[T]) (core.Program[T], []T, int64) {
	t.Helper()
	if p.M != 1 {
		t.Fatalf("peval wants a single-fragment partition, got %d", p.M)
	}
	f := p.Frags[0]
	prog := job.New(f)
	ctx := core.NewEngineContext[T](f, 1)
	prog.PEval(ctx)
	out, work := ctx.TakeOut()
	for _, msgs := range out {
		if len(msgs) != 0 {
			t.Fatalf("single-fragment PEval shipped %d messages", len(msgs))
		}
	}
	vals := make([]T, p.G.NumVertices())
	for v := f.Lo; v < f.Hi; v++ {
		vals[v] = prog.Get(v)
	}
	return prog, vals, work
}

// peval is runPEval's owned values.
func peval[T any](t *testing.T, p *partition.Partitioned, job core.Job[T]) []T {
	t.Helper()
	_, vals, _ := runPEval(t, p, job)
	return vals
}

// roundsOf asserts that prog reports its frontier rounds and returns
// them.
func roundsOf(t *testing.T, prog any) int {
	t.Helper()
	rr, ok := prog.(interface{ KernelRounds() int })
	if !ok {
		t.Fatalf("program %T does not report kernel rounds", prog)
	}
	return rr.KernelRounds()
}

// kernelRounds is the frontier rounds of job's PEval on the single
// fragment of p.
func kernelRounds[T any](t *testing.T, p *partition.Partitioned, job core.Job[T]) int {
	t.Helper()
	prog, _, _ := runPEval(t, p, job)
	return roundsOf(t, prog)
}

// pagerankPin is a PageRank run's exact outcome: the FNV-1a-64 hash of
// its values' float64 bits (little-endian, in vertex order), the work it
// reported and its kernel rounds. Every pin was taken from a plain-loop
// statement of the kernel's round rule (a sorted frontier list and a
// flag per slot, where the kernel has its bitmap frontier), which the
// kernel matched on all three. Float sums remember their addition order,
// so a pin holds only under IEEE float64 arithmetic without fused
// multiply-add, as aapbench.golden and TestPageRankHashFragmentWork
// assume; CI runs on amd64.
type pagerankPin struct {
	hash   uint64
	work   int64
	rounds int
}

// String prints a pin in the form of the pin tables.
func (p pagerankPin) String() string { return fmt.Sprintf("{%#x, %d, %d}", p.hash, p.work, p.rounds) }

// fnv64 is the FNV-1a-64 hash of chunks, one after another.
func fnv64(chunks ...[]byte) uint64 {
	h := fnv.New64a()
	for _, c := range chunks {
		h.Write(c)
	}
	return h.Sum64()
}

// hashF64 is the FNV-1a-64 hash of vals' float64 bits.
func hashF64(vals []float64) uint64 {
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return fnv64(buf)
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
// bucketed sweep against Dijkstra (ref.SSSP) on one fragment
// (delta_test.go adds the bucket-width axis).
func TestSSSPParallelKernelMatchesRef(t *testing.T) {
	for name, g := range diffGraphs() {
		p, err := partition.Build(g, 1, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		bitsEqualF64(t, "sssp/"+name, peval(t, p, sssp.Job(0)), ref.SSSP(p.G, 0))
		if r := kernelRounds(t, p, sssp.Job(0)); r <= 0 {
			t.Fatalf("sssp/%s reported %d kernel rounds", name, r)
		}
	}
}

// TestSSSPJobBelowGrainRunsBucketedKernel: sssp.Job builds the bucketed
// kernel for a small fragment (784 vertices), where it once fell back to
// Dijkstra, and its answer is Dijkstra's (ref.SSSP) bit for bit.
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
	bitsEqualF64(t, "sssp/below-grain", peval(t, p, sssp.Job(0)), ref.SSSP(p.G, 0))
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
// must replay the plain-loop round rule's contribution order exactly — a
// sum fixpoint, so any reordering would change low-order bits and miss
// the pins. The tight tolerance is the long-tail case: hundreds of
// rounds after the bulk has converged.
func TestPageRankParallelKernelMatchesRef(t *testing.T) {
	pins := map[string]pagerankPin{
		"grid/tol=1e-06":        {0x38defac191dbba27, 156136, 44},
		"grid/tol=1e-10":        {0x7c2226c2006d8e1e, 267901, 75},
		"island/tol=1e-06":      {0x5e556a1f55766b1, 16908, 25},
		"island/tol=1e-10":      {0x4f7a9bab580bbf0, 21840, 42},
		"onepast/tol=1e-06":     {0x6ebf6480147b65ef, 1284295, 54},
		"onepast/tol=1e-10":     {0x13d3daedc527189b, 2218700, 84},
		"powerlaw/tol=1e-06":    {0x1bbea8ddc58e0a06, 142219, 45},
		"powerlaw/tol=1e-10":    {0x1b001854125f2ca6, 239236, 69},
		"powerlaw20k/tol=1e-06": {0x11fbf55632516332, 4623136, 46},
		"powerlaw20k/tol=1e-10": {0x153538c0605faf99, 7641702, 73},
		"random/tol=1e-06":      {0x140029fb752110d, 29252, 46},
		"random/tol=1e-10":      {0xe09df63dd4be3761, 50246, 68},
		"road/tol=1e-06":        {0x92968dff192da5a6, 81580, 52},
		"road/tol=1e-10":        {0x5a017332826ceaaf, 140269, 77},
		"road150/tol=1e-06":     {0x580e68ec315a19bd, 4431686, 75},
		"road150/tol=1e-10":     {0xb5dd89afca3d76b8, 7680013, 103},
		"twoblocks/tol=1e-06":   {0xcd4897b3e208c9ae, 1690046, 44},
		"twoblocks/tol=1e-10":   {0x2e0779e97ca6e48e, 2902769, 75},
	}
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
			key := fmt.Sprintf("%s/tol=%g", name, tol)
			prog, vals, work := runPEval(t, p, pagerank.Job(pagerank.Config{Tol: tol}))
			if got, want := (pagerankPin{hashF64(vals), work, roundsOf(t, prog)}), pins[key]; got != want {
				t.Errorf("pagerank/%s: got %v, pinned %v", key, got, want)
			}
		}
	}
}

// TestPageRankWorkOnRoadLattice pins Gauss–Seidel against Jacobi as a
// count. Consume-everything-then-push (Jacobi) needs
// ⌈ln(Tol/(1-d)) / ln d⌉ = 74 full sweeps of the fragment at the default
// Tol and did 75.5 sweeps' worth of work on this lattice; pushing at
// once (Gauss–Seidel) contracts about twice as fast per sweep and does
// 40.9. The count is pinned to the unit, like the bits
// (TestPageRankParallelKernelMatchesRef pins the same run).
func TestPageRankWorkOnRoadLattice(t *testing.T) {
	p, err := partition.Build(pagerankGraphs()["road150"], 1, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	f := p.Frags[0]
	sweep := f.Graph().OutSpan(f.Lo, f.Hi) + int64(f.NumOwned())
	jacobi := math.Ceil(math.Log(1e-6/(1-0.85)) / math.Log(0.85))
	limit := int64(0.65 * jacobi * float64(sweep))
	_, _, work := runPEval(t, p, pagerank.Job(pagerank.Config{}))
	if work > limit {
		t.Errorf("PEval reported %d work units = %.1f sweeps of %d, want at most 0.65 × %v sweeps = %d",
			work, float64(work)/float64(sweep), sweep, jacobi, limit)
	}
	if want := int64(4431686); work != want {
		t.Errorf("PEval reported %d work units, pinned %d", work, want)
	}
}

// pagerankKernel is what the snapshot tests need of the kernel.
type pagerankKernel interface {
	core.Program[float64]
	core.Snapshotter
}

// buildPageRank builds one kernel at the default Config and one engine
// context per fragment.
func buildPageRank(p *partition.Partitioned) ([]pagerankKernel, []*core.Context[float64]) {
	job := pagerank.Job(pagerank.Config{})
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
	_, _, work := runPEval(t, one, pagerank.Job(pagerank.Config{}))
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

// multiFragmentWork runs the kernel over p through the barrier
// superstep harness and returns the work it reports. The run must end
// with its final snapshots hashing (fnv64) to end, and with every owned
// residual at most Tol (pagerankPin has the provenance and the
// arithmetic the hash assumes).
func multiFragmentWork(t *testing.T, p *partition.Partitioned, end uint64) int64 {
	t.Helper()
	const tol = 1e-6 // pagerank.Config's default
	sum := func(a, b float64) float64 { return a + b }
	progs, ctxs := buildPageRank(p)
	inbox, work := pevalAll(progs, ctxs)
	for active := true; active; {
		var w int64
		inbox, active, w = superstep(progs, ctxs, inbox, sum)
		work += w
	}
	snaps := snapshotAll(progs)
	if got := fnv64(snaps...); got != end {
		t.Errorf("%d fragments: final snapshots hash to %#x, pinned %#x", p.M, got, end)
	}
	for i, f := range p.Frags {
		if s, x := residualAbove(t, f, snaps[i], tol); s >= 0 {
			t.Errorf("fragment %d slot %d ends with residual %g > Tol", i, s, x)
		}
	}
	return work
}

// TestPageRankMultiFragmentWork pins PageRank's multi-fragment work on a
// road lattice as a count. Re-converging every fragment to Tol on every
// superstep, while boundary mass still arrives in bulk, did 3.28× the
// one-fragment PEval work at 4 fragments. An IncEval that pushes only
// deltas above 1/32 of its largest incoming one and wakes itself for the
// rest did 1.48×, while PEval still solved its fragment to Tol before any
// border mass had arrived. A PEval that runs at the same threshold, with
// the seed as its largest delta, and wakes itself the same way does
// 1.16×. The run must still end with every owned residual at most Tol.
func TestPageRankMultiFragmentWork(t *testing.T) {
	g := pagerankGraphs()["road150"]
	single := onePEvalWork(t, g)
	p, err := partition.Build(g, 4, partition.BFSLocality{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	work := multiFragmentWork(t, p, 0x79ff79a5dded1560)
	ratio := float64(work) / float64(single)
	t.Logf("%d fragments: %d work units = %.2f× one fragment's PEval (%d)", p.M, work, ratio, single)
	if ratio > 1.2 {
		t.Errorf("%d fragments did %.2f× the work of one (%d vs %d), want at most 1.2×", p.M, ratio, work, single)
	}
}

// TestPageRankHashFragmentWork pins the work of hash fragments on a
// power-law graph, where nearly every edge crosses a fragment boundary,
// as exact counts at 2, 8 and 32 fragments. It is an open gap: the
// kernel does 2.81×, 4.24× and 3.04× one fragment's 6.63 M work units
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
		end  uint64
	}{
		{2, 18661048, 0x6c6914c770c6d1d4},
		{8, 28120846, 0x6d0b44e82bf3eacb},
		{32, 20186758, 0xa73748ad1a3ef97c},
	} {
		t.Run(fmt.Sprintf("m=%d", c.m), func(t *testing.T) {
			t.Parallel()
			p, err := partition.Build(g, c.m, partition.Hash{})
			if err != nil {
				t.Fatal(err)
			}
			work := multiFragmentWork(t, p, c.end)
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
		progs := make([]pagerankKernel, p.M)
		job := keepPrograms(pagerank.Job(pagerank.Config{}), progs)
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
// empty at that boundary, so it is not in the snapshot, whose state is
// score, delta and the round count; every cut's snapshots, in cut order,
// and the uninterrupted run's final ones are pinned (pagerankPin has the
// provenance and the arithmetic they assume). Two more cuts hold a
// fragment's wake to itself in flight: the one right after PEval, which
// parks the residual below its coarse threshold, and the first superstep
// whose outbox holds a wake. The parked residual is in the snapshot's
// deltas and the wake is a message in flight like any other, so no new
// state is needed.
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
	finish := func(progs []pagerankKernel, ctxs []*core.Context[float64], inbox [][]core.VMsg[float64]) [][]byte {
		for active := true; active; {
			inbox, active, _ = superstep(progs, ctxs, inbox, sum)
		}
		return snapshotAll(progs)
	}

	live, liveCtxs := buildPageRank(p)
	inbox, _ := pevalAll(live, liveCtxs)
	if !hasWake(p, inbox) {
		t.Fatal("no fragment woke itself from PEval")
	}
	cuts := []cut{{"after-peval", snapshotAll(live), clone(inbox)}}
	wake := false
	for step, active := 1, true; active; step++ {
		inbox, active, _ = superstep(live, liveCtxs, inbox, sum)
		if step == 2 {
			if len(inbox[0]) == 0 || len(inbox[1]) == 0 {
				t.Fatalf("snapshot is not mid-run: %d and %d messages pending", len(inbox[0]), len(inbox[1]))
			}
			cuts = append(cuts, cut{"mid-run", snapshotAll(live), clone(inbox)})
		}
		if !wake && hasWake(p, inbox) {
			wake = true
			cuts = append(cuts, cut{fmt.Sprintf("wake@%d", step), snapshotAll(live), clone(inbox)})
		}
	}
	if !wake {
		t.Fatal("no fragment ever woke itself")
	}
	end := snapshotAll(live)
	if got, want := fnv64(end...), uint64(0x733942f04955e383); got != want {
		t.Errorf("uninterrupted run's final snapshots hash to %#x, pinned %#x", got, want)
	}
	pins := []struct {
		name string
		hash uint64
	}{
		{"after-peval", 0xe3b620cc1e07d708},
		{"wake@1", 0x3ac10fe850a1b603},
		{"mid-run", 0xf80f6ca66fe5af29},
	}
	if len(cuts) != len(pins) {
		t.Fatalf("%d cuts, pinned %d", len(cuts), len(pins))
	}
	for i, cu := range cuts {
		if cu.name != pins[i].name {
			t.Fatalf("cut %d is %s, pinned %s", i, cu.name, pins[i].name)
		}
		if got := fnv64(cu.snap...); got != pins[i].hash {
			t.Errorf("%s: snapshots hash to %#x, pinned %#x", cu.name, got, pins[i].hash)
		}
		fresh, freshCtxs := buildPageRank(p)
		for i := range live {
			if err := fresh[i].RestoreState(cu.snap[i]); err != nil {
				t.Fatal(err)
			}
			if err := live[i].RestoreState(cu.snap[i]); err != nil {
				t.Fatal(err)
			}
		}
		for tag, got := range map[string][][]byte{
			"fresh":    finish(fresh, freshCtxs, clone(cu.inbox)),
			"rollback": finish(live, liveCtxs, clone(cu.inbox)),
		} {
			for i := range end {
				if !bytes.Equal(got[i], end[i]) {
					t.Errorf("%s/%s: fragment %d state differs", cu.name, tag, i)
				}
			}
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

// keepPrograms wraps job so that every program it builds is kept in
// progs by fragment id, as a P.
func keepPrograms[P any](job core.Job[float64], progs []P) core.Job[float64] {
	var mu sync.Mutex
	build := job.New
	job.New = func(f *partition.Fragment) core.Program[float64] {
		prog := build(f)
		mu.Lock()
		progs[f.ID] = prog.(P)
		mu.Unlock()
		return prog
	}
	return job
}

// TestParallelKernelsMatchRefUnderSim: end-to-end differential through
// the simulator with real multi-fragment message traffic. SSSP and CC
// converge to unique exact-min fixpoints, so kernel and oracle runs must
// agree bitwise even though their round structures differ. PageRank's
// virtual-time run is deterministic, so its values, work and kernel
// rounds (summed over fragments) are pinned exactly, like the
// program-level pins.
func TestParallelKernelsMatchRefUnderSim(t *testing.T) {
	g := gen.PowerLaw(500, 5, 2.1, true, 23)
	und := graph.AsUndirected(g)
	corpora := pagerankGraphs()
	pins := map[string]pagerankPin{
		"powerlaw/m=2":    {0xd97925de14303e11, 227229, 383},
		"road/m=2":        {0xac9a2aa9eb5f6687, 604098, 1412},
		"road150/m=2":     {0x66c388a7cac53e0e, 6616783, 1304},
		"powerlaw20k/m=2": {0x84cd7dc348aa95ff, 11404735, 463},
		"powerlaw/m=5":    {0x5bcf0d0ba9f61b5d, 404076, 6119},
		"road/m=5":        {0x59bb46ae0572146e, 609435, 3127},
	}
	for _, m := range []int{2, 5} {
		p, err := partition.Build(g, m, partition.BFSLocality{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		pu, err := partition.Build(und, m, partition.BFSLocality{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}

		bitsEqualF64(t, fmt.Sprintf("sim/sssp/m=%d", m), simValues(t, p, sssp.Job(0)), ref.SSSP(p.G, 0))
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
			key := fmt.Sprintf("%s/m=%d", in.name, m)
			progs := make([]interface{ KernelRounds() int }, m)
			job := keepPrograms(pagerank.Job(pagerank.Config{Tol: in.tol}), progs)
			res, err := sim.Run(in.p, job, sim.Config{Options: core.Options{Mode: core.AAP}})
			if err != nil {
				t.Fatal(err)
			}
			got := pagerankPin{hash: hashF64(res.Values), work: res.Stats.TotalWork}
			for _, prog := range progs {
				got.rounds += prog.KernelRounds()
			}
			if want := pins[key]; got != want {
				t.Errorf("sim/pagerank/%s: got %v, pinned %v", key, got, want)
			}
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
