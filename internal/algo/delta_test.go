package algo_test

// Differential tests of the bucketed SSSP kernel: at every bucket width
// — tiny (near-Dijkstra ordering), +Inf (one bucket, the Bellman-Ford
// frontier order), and the fragment's mean weight — it must match
// Dijkstra (ref.SSSP) bit for bit, at the program level and end to end
// through the simulator and the engine.
// Plus the contracts around it: the positive-weight precondition fails
// fast, a snapshot taken mid-run resumes exactly, on a road-network
// graph bucketing removes re-relaxations, and on a power-law graph it
// adds none.

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
	"aap/internal/sim"
)

// deltaWidths is the forced bucket-width axis: tiny approaches Dijkstra
// (every distance its own bucket, exercising the overflow window), +Inf
// is a single bucket (Bellman-Ford order, every relaxation staged into
// the bucket being drained), 0 means the mean edge weight, and
// NaN/negative must fall back to the mean instead of silently
// mis-bucketing every distance (regression: 'delta <= 0' missed NaN).
var deltaWidths = []float64{0.05, math.Inf(1), 0, math.NaN(), -2}

func deltaTag(d float64) string {
	switch {
	case math.IsNaN(d):
		return "nan"
	case d < 0:
		return "neg"
	case d == 0:
		return "auto"
	case math.IsInf(d, 1):
		return "inf"
	default:
		return "tiny"
	}
}

// deltaGraphs extends the shared differential corpora with the
// workloads the bucketed kernel exists for and its edge cases: a road
// network (long shortest-path trees, dropped segments leaving
// unreachable pockets), a two-component graph (whole fragments never
// reached), and an unweighted graph (delta degenerates to BFS levels).
func deltaGraphs() map[string]*graph.Graph {
	gs := diffGraphs()
	gs["roadnet"] = gen.RoadNet(24, 24, 41)
	gs["twocomp"] = twoComponents()
	gs["unweighted"] = gen.PowerLaw(300, 5, 2.1, false, 43)
	return gs
}

// twoComponents builds a weighted graph whose second component is
// unreachable from vertex 0.
func twoComponents() *graph.Graph {
	b := graph.NewBuilder(true)
	b.SetWeighted()
	for i := 0; i < 40; i++ {
		b.AddWeightedEdge(graph.VertexID(i), graph.VertexID((i+1)%40), 1+float64(i%7))
	}
	for i := 100; i < 130; i++ {
		b.AddWeightedEdge(graph.VertexID(i), graph.VertexID(100+(i+1)%30), 2.5)
	}
	b.AddVertex(graph.VertexID(999)) // fully isolated vertex
	return b.Build()
}

// TestSSSPDeltaKernelMatchesRef: program-level differential — the
// bucketed kernel at every bucket width against Dijkstra (ref.SSSP) on
// one fragment.
func TestSSSPDeltaKernelMatchesRef(t *testing.T) {
	for name, g := range deltaGraphs() {
		p, err := partition.Build(g, 1, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		want := ref.SSSP(p.G, 0)
		for _, d := range deltaWidths {
			got := peval(t, p, sssp.JobConfig(sssp.Config{Delta: d}))
			bitsEqualF64(t, fmt.Sprintf("sssp-delta/%s/delta=%s", name, deltaTag(d)), got, want)
		}
		if r := kernelRounds(t, p, sssp.Job(0)); r <= 0 {
			t.Fatalf("sssp-delta/%s reported %d kernel rounds", name, r)
		}
	}
}

// TestSSSPDeltaUnderSim: end-to-end differential through the simulator
// with real multi-fragment message traffic, including m close to n so
// fragments hold one or two vertices (IncEval re-seeding dominates).
func TestSSSPDeltaUnderSim(t *testing.T) {
	corpora := map[string]struct {
		g  *graph.Graph
		ms []int
	}{
		"roadnet":   {gen.RoadNet(16, 16, 47), []int{2, 5}},
		"powerlaw":  {gen.PowerLaw(400, 5, 2.1, true, 49), []int{2, 5}},
		"twocomp":   {twoComponents(), []int{3}},
		"tinyfrags": {gen.Random(24, 90, true, 51), []int{24}}, // single-vertex fragments
	}
	for name, c := range corpora {
		for _, m := range c.ms {
			p, err := partition.Build(c.g, m, partition.Hash{})
			if err != nil {
				t.Fatal(err)
			}
			want := ref.SSSP(p.G, 0)
			for _, d := range deltaWidths {
				got := simValues(t, p, sssp.JobConfig(sssp.Config{Delta: d}))
				bitsEqualF64(t, fmt.Sprintf("sim/sssp-delta/%s/m=%d/delta=%s", name, m, deltaTag(d)), got, want)
			}
		}
	}
}

// TestSSSPDeltaUnderEngine runs the bucketed kernel through the real
// concurrent engine (under -race in CI) on both graph families the old
// kernel heuristic told apart, across the bucket widths.
func TestSSSPDeltaUnderEngine(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"roadnet":  gen.RoadNet(16, 16, 53),
		"powerlaw": gen.PowerLaw(400, 5, 2.1, true, 55),
	} {
		p, err := partition.Build(g, 4, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		want := ref.SSSP(p.G, 0)
		for _, d := range []float64{0.05, 0, math.Inf(1)} {
			res, err := core.Run(p, sssp.JobConfig(sssp.Config{Delta: d}), core.Options{Mode: core.AAP})
			if err != nil {
				t.Fatal(err)
			}
			bitsEqualF64(t, fmt.Sprintf("engine/sssp-delta/%s/delta=%s", name, deltaTag(d)), res.Values, want)
		}
	}
}

// ssspKernel is what the snapshot test drives: the bucketed program's
// PIE and checkpoint halves plus its counters.
type ssspKernel interface {
	core.Program[float64]
	core.Snapshotter
	core.ScanCounter
	BucketsDrained() int
}

// superstep runs one barrier round by hand: every fragment with pending
// messages folds them with agg and runs IncEval; it returns the next
// inboxes, whether anyone had work, and the work units reported. It
// folds with the engine's Folder, which is bit-identical to the
// map-based FoldMessages and, on the PageRank work counts of hash
// fragments, halves the test's time. A fold fails only on a message for
// a vertex without a slot, which Send never routes, so that is a panic.
func superstep[P core.Program[float64]](progs []P, ctxs []*core.Context[float64], inbox [][]core.VMsg[float64], agg func(a, b float64) float64) ([][]core.VMsg[float64], bool, int64) {
	next := make([][]core.VMsg[float64], len(progs))
	active := false
	var work int64
	for i, prog := range progs {
		if len(inbox[i]) == 0 {
			continue
		}
		active = true
		fd := core.NewFolder[float64](ctxs[i].Fragment())
		if err := fd.Add(inbox[i], agg); err != nil {
			panic(err)
		}
		prog.IncEval(fd.Take(), ctxs[i])
		out, w := ctxs[i].TakeOut()
		work += w
		for j, ms := range out {
			next[j] = append(next[j], ms...)
		}
	}
	return next, active, work
}

// TestSSSPDeltaSnapshotResumesMidRun: a snapshot taken at a round
// boundary in the middle of a run — bucket windows advanced well past
// zero, messages in flight — restored into fresh programs (a replaced
// worker) and into the finished live ones (a rollback), continues to
// the same distances and to the same counters as the uninterrupted run.
func TestSSSPDeltaSnapshotResumesMidRun(t *testing.T) {
	p, err := partition.Build(gen.RoadNet(30, 30, 71), 3, partition.BFSLocality{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.SSSP(p.G, 0)
	job := sssp.Job(0)
	build := func() ([]ssspKernel, []*core.Context[float64]) {
		progs := make([]ssspKernel, p.M)
		ctxs := make([]*core.Context[float64], p.M)
		for i, f := range p.Frags {
			progs[i] = job.New(f).(ssspKernel)
			ctxs[i] = core.NewEngineContext[float64](f, p.M)
		}
		return progs, ctxs
	}
	finish := func(tag string, progs []ssspKernel, ctxs []*core.Context[float64], inbox [][]core.VMsg[float64]) (relaxed int64, buckets int) {
		for active := true; active; {
			inbox, active, _ = superstep(progs, ctxs, inbox, math.Min)
		}
		got := make([]float64, p.G.NumVertices())
		for i, f := range p.Frags {
			for v := f.Lo; v < f.Hi; v++ {
				got[v] = progs[i].Get(v)
			}
			relaxed += progs[i].ScannedEdges()
			buckets += progs[i].BucketsDrained()
		}
		bitsEqualF64(t, tag, got, want)
		return relaxed, buckets
	}

	live, liveCtxs := build()
	inbox := make([][]core.VMsg[float64], p.M)
	for i := range live {
		live[i].PEval(liveCtxs[i])
		out, _ := liveCtxs[i].TakeOut()
		for j, ms := range out {
			inbox[j] = append(inbox[j], ms...)
		}
	}
	for round := 0; round < 2; round++ {
		inbox, _, _ = superstep(live, liveCtxs, inbox, math.Min)
	}
	snaps := make([][]byte, p.M)
	pending, advanced := 0, 0
	for i := range live {
		snaps[i] = live[i].SnapshotState()
		pending += len(inbox[i])
		advanced += live[i].BucketsDrained()
	}
	if pending == 0 || advanced < 2*p.M {
		t.Fatalf("snapshot is not mid-run: %d messages pending, %d buckets drained", pending, advanced)
	}
	cloneInbox := func(in [][]core.VMsg[float64]) [][]core.VMsg[float64] {
		out := make([][]core.VMsg[float64], len(in))
		for i := range in {
			out[i] = slices.Clone(in[i])
		}
		return out
	}
	saved := cloneInbox(inbox)
	restore := func(progs []ssspKernel) {
		for i := range progs {
			if err := progs[i].RestoreState(snaps[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	wantRelaxed, wantBuckets := finish("uninterrupted", live, liveCtxs, inbox)
	fresh, freshCtxs := build()
	restore(fresh)
	restore(live)
	for tag, r := range map[string]struct {
		progs []ssspKernel
		ctxs  []*core.Context[float64]
	}{"fresh": {fresh, freshCtxs}, "rollback": {live, liveCtxs}} {
		relaxed, buckets := finish(tag, r.progs, r.ctxs, cloneInbox(saved))
		if relaxed != wantRelaxed || buckets != wantBuckets {
			t.Errorf("%s: resumed to %d relaxations / %d buckets, uninterrupted run did %d / %d",
				tag, relaxed, buckets, wantRelaxed, wantBuckets)
		}
	}
}

// TestSSSPDeltaFlushOncePerCopy: the border flush sends each improved
// copy once, in ascending vertex order, with the distance it holds when
// the round ends. A hand-driven barrier run on a multi-fragment
// power-law partition checks every batch of every round.
func TestSSSPDeltaFlushOncePerCopy(t *testing.T) {
	p, err := partition.Build(gen.PowerLaw(3000, 6, 2.1, true, 73), 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	job := sssp.Job(0)
	progs := make([]core.Program[float64], p.M)
	ctxs := make([]*core.Context[float64], p.M)
	for i, f := range p.Frags {
		progs[i] = job.New(f)
		ctxs[i] = core.NewEngineContext[float64](f, p.M)
	}
	batches := 0
	inbox := make([][]core.VMsg[float64], p.M)
	ship := func(i int) {
		out, _ := ctxs[i].TakeOut()
		for j, ms := range out {
			for x, m := range ms {
				if x > 0 && m.V <= ms[x-1].V {
					t.Fatalf("worker %d → %d sends vertex %d after %d", i, j, m.V, ms[x-1].V)
				}
				if held := progs[i].Get(m.V); math.Float64bits(held) != math.Float64bits(m.Val) {
					t.Fatalf("worker %d sent vertex %d at %v, its copy holds %v", i, m.V, m.Val, held)
				}
			}
			if len(ms) > 0 {
				batches++
				inbox[j] = append(inbox[j], ms...)
			}
		}
	}
	for i := range progs {
		progs[i].PEval(ctxs[i])
		ship(i)
	}
	for active := true; active; {
		cur := inbox
		inbox = make([][]core.VMsg[float64], p.M)
		active = false
		for i := range progs {
			if len(cur[i]) > 0 {
				active = true
				progs[i].IncEval(core.FoldMessages(cur[i], math.Min), ctxs[i])
				ship(i)
			}
		}
	}
	if batches <= p.M {
		t.Fatalf("only %d batches: the partition exercises too little border traffic", batches)
	}
}

// TestSSSPRejectsBadWeights: the documented "edge weights must be
// positive" contract is enforced at run start — zero, negative, NaN and
// +Inf weights all fail fast with a clear error from both engines,
// before any kernel can silently diverge.
func TestSSSPRejectsBadWeights(t *testing.T) {
	for _, bad := range []float64{0, -1.5, math.NaN(), math.Inf(1)} {
		b := graph.NewBuilder(true)
		b.AddWeightedEdge(0, 1, 2.5)
		b.AddWeightedEdge(1, 2, bad)
		g := b.Build()
		p, err := partition.Build(g, 2, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP}); err == nil {
			t.Fatalf("engine accepted weight %v", bad)
		} else if !strings.Contains(err.Error(), "must be positive") {
			t.Fatalf("weight %v: unhelpful error %q", bad, err)
		}
		if _, err := sim.Run(p, sssp.Job(0), sim.Config{Options: core.Options{Mode: core.AAP}}); err == nil {
			t.Fatalf("simulator accepted weight %v", bad)
		}
	}
	// Positive finite weights must still pass.
	b := graph.NewBuilder(true)
	b.AddWeightedEdge(0, 1, 0.25)
	p, err := partition.Build(b.Build(), 1, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP}); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

// relaxations runs job's kernel to the local fixpoint on the single
// fragment of p and returns the edge relaxations it attempted. Every
// kernel is deterministic, so the count is stable for a fixed seed.
func relaxations(t *testing.T, p *partition.Partitioned, job core.Job[float64]) int64 {
	t.Helper()
	prog := job.New(p.Frags[0])
	ctx := core.NewEngineContext[float64](p.Frags[0], 1)
	prog.PEval(ctx)
	ctx.TakeOut()
	return prog.(core.ScanCounter).ScannedEdges()
}

// TestSSSPDeltaFewerRelaxations pins the point of bucketing: on a road
// network the mean-weight delta must attempt at most half the edge
// relaxations of the Bellman-Ford frontier order (Delta = +Inf). (The
// Bellman-Ford re-relaxation factor grows with
// network diameter: 1.6x at 60x60, 3.0x here, 4.7x at 200x200 — so this
// size is the smallest that pins the 2x claim.)
func TestSSSPDeltaFewerRelaxations(t *testing.T) {
	p, err := partition.Build(gen.RoadNet(100, 100, 61), 1, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	frontier := relaxations(t, p, sssp.JobConfig(sssp.Config{Delta: math.Inf(1)}))
	delta := relaxations(t, p, sssp.Job(0))
	if delta*2 > frontier {
		t.Fatalf("mean-weight delta attempted %d relaxations vs %d in frontier order: want at least 2x fewer",
			delta, frontier)
	}
}

// dijkstraScans is the edges Dijkstra from vertex 0 of g scans: the
// out-edges of every vertex it reaches, once.
func dijkstraScans(g *graph.Graph) int64 {
	var n int64
	for v, d := range ref.SSSP(g, 0) {
		if !math.IsInf(d, 1) {
			n += int64(len(g.Out(int32(v))))
		}
	}
	return n
}

// TestSSSPDeltaOrderingCostsNoWork pins the other side, the reason no
// rule reads the weights to choose a kernel: on a low-diameter
// power-law graph, where there are no re-relaxations to remove,
// bucketing by the mean weight (every taken vertex relaxes all its
// edges, each time it is taken) must stay within 1.5x of Dijkstra's
// one scan per reached vertex, pinned here. It measures 1.12x;
// expanding a vertex a second time at an unchanged distance (staging a
// taken slot again before its expansion has begun) made it 1.39x.
func TestSSSPDeltaOrderingCostsNoWork(t *testing.T) {
	p, err := partition.Build(gen.PowerLaw(20000, 8, 2.1, true, 67), 1, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	dijkstra := dijkstraScans(p.G)
	if dijkstra != 155773 {
		t.Fatalf("Dijkstra scans %d edges, pinned 155773", dijkstra)
	}
	delta := relaxations(t, p, sssp.Job(0))
	t.Logf("relaxations: dijkstra %d, mean-weight delta %d", dijkstra, delta)
	if delta*2 > dijkstra*3 {
		t.Fatalf("mean-weight delta attempted %d relaxations vs Dijkstra's %d: want at most 1.5x",
			delta, dijkstra)
	}
}
