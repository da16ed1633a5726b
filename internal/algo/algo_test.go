// Package algo_test holds cross-algorithm integration tests: each PIE
// program against its sequential oracle on varied graphs, partitions and
// modes, plus edge cases the per-engine tests do not cover.
package algo_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

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

// TestSSSPRandomGraphsProperty: for random weighted graphs, partitions
// and sources, the PIE program matches Dijkstra.
func TestSSSPRandomGraphsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		g := gen.Random(n, n*4, true, seed)
		src := graph.VertexID(rng.Intn(n))
		m := 1 + rng.Intn(8)
		p, err := partition.Build(g, m, partition.Hash{})
		if err != nil {
			return false
		}
		res, err := core.Run(p, sssp.Job(src), core.Options{Mode: core.Mode(rng.Intn(3))})
		if err != nil {
			return false
		}
		want := ref.SSSP(g, src)
		for v := 0; v < n; v++ {
			id := p.G.IDOf(int32(v))
			orig, _ := g.IndexOf(id)
			got, w := res.Values[v], want[orig]
			if got != w && !(math.IsInf(got, 1) && math.IsInf(w, 1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCCRandomGraphsProperty: CC matches union-find for random undirected
// graphs under random partitions.
func TestCCRandomGraphsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(150)
		// Sparse graphs leave several components.
		g := graph.AsUndirected(gen.Random(n, n, false, seed))
		m := 1 + rng.Intn(6)
		p, err := partition.Build(g, m, partition.BFSLocality{Seed: seed})
		if err != nil {
			return false
		}
		res, err := core.Run(p, cc.Job(), core.Options{Mode: core.Mode(rng.Intn(3))})
		if err != nil {
			return false
		}
		want := ref.CC(g)
		for v := 0; v < n; v++ {
			id := p.G.IDOf(int32(v))
			orig, _ := g.IndexOf(id)
			if res.Values[v] != want[orig] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCCManyComponents: a forest of disjoint paths keeps distinct cids.
func TestCCManyComponents(t *testing.T) {
	b := graph.NewBuilder(false)
	for c := 0; c < 10; c++ {
		base := graph.VertexID(c * 100)
		for i := 0; i < 5; i++ {
			b.AddEdge(base+graph.VertexID(i), base+graph.VertexID(i+1))
		}
	}
	g := b.Build()
	p, err := partition.Build(g, 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, cc.Job(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	comps := map[int64]int{}
	for v := 0; v < g.NumVertices(); v++ {
		comps[res.Values[v]]++
	}
	if len(comps) != 10 {
		t.Fatalf("components = %d, want 10", len(comps))
	}
	for cid, size := range comps {
		if size != 6 {
			t.Errorf("component %d size %d, want 6", cid, size)
		}
		if cid%100 != 0 {
			t.Errorf("component id %d is not the minimum member", cid)
		}
	}
}

// TestPageRankMassConservation: with no dangling vertices, total rank
// mass converges to n (each vertex's fixpoint sums the teleport mass it
// absorbs); the L1 distance to power iteration stays within tolerance.
func TestPageRankMassConservation(t *testing.T) {
	g := gen.SmallWorld(400, 3, 0.1, false, 51)
	p, err := partition.Build(g, 5, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, pagerank.Job(pagerank.Config{Tol: 1e-9}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range res.Values {
		sum += s
	}
	if math.Abs(sum-400) > 0.5 {
		t.Errorf("total mass %v, want ~400", sum)
	}
}

// TestPageRankDanglingVertices: vertices without out-edges park their
// mass, matching the reference formulation.
func TestPageRankDanglingVertices(t *testing.T) {
	b := graph.NewBuilder(true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2) // 2 is dangling
	b.AddEdge(0, 2)
	g := b.Build()
	want := ref.PageRank(g, 0.85, 1e-12, 1000)
	p, err := partition.Build(g, 2, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, pagerank.Job(pagerank.Config{Tol: 1e-12}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		id := p.G.IDOf(int32(v))
		orig, _ := g.IndexOf(id)
		if d := math.Abs(res.Values[v] - want[orig]); d > 1e-6 {
			t.Errorf("vertex %d: got %v want %v", id, res.Values[v], want[orig])
		}
	}
}

// TestPageRankConfigFailsSafe: a Tol or Damping the fixpoint is not
// defined for takes the default. Before the guard Tol = NaN (and +Inf)
// answered 1-d for every vertex with a nil error, Tol = -1 never left
// PEval — where no engine deadline reaches — and Damping = 1 seeded no
// mass at all.
func TestPageRankConfigFailsSafe(t *testing.T) {
	g := gen.SmallWorld(300, 3, 0.1, false, 53)
	p, err := partition.Build(g, 1, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	want := peval(t, p, pagerank.Job(pagerank.Config{}))
	for name, cfg := range map[string]pagerank.Config{
		"tol=NaN":      {Tol: math.NaN()},
		"tol=-1":       {Tol: -1},
		"tol=+Inf":     {Tol: math.Inf(1)},
		"damping=1":    {Damping: 1},
		"damping=-0.5": {Damping: -0.5},
		"damping=NaN":  {Damping: math.NaN()},
	} {
		bitsEqualF64(t, name, peval(t, p, pagerank.Job(cfg)), want)
	}
}

// TestCFRecoversPlantedFactors: distributed SGD on a planted low-rank
// rating matrix must reach a holdout RMSE close to the noise floor and
// comparable to single-threaded SGD.
func TestCFRecoversPlantedFactors(t *testing.T) {
	r := gen.Bipartite(300, 60, 12, 4, 0.9, 61)
	cfg := cf.Config{Users: 300, Products: 60, Rank: 4, Epochs: 40, Seed: 1}

	// Reference single-thread SGD.
	_, _, trainRMSE := ref.CF(300, 60, r.TrainEdges, ref.SGDConfig{Rank: 4, LearnRate: 0.05, Lambda: 0.01, Epochs: 40, Seed: 1})

	p, err := partition.Build(r.G, 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, cf.Job(cfg), core.Options{Mode: core.AAP, Staleness: 4})
	if err != nil {
		t.Fatal(err)
	}
	uf, pf := cf.Factors(p, res.Values, cfg)
	hold := ref.RMSE(300, uf, pf, r.HoldoutEdges)
	if hold > 0.5 {
		t.Errorf("holdout RMSE %.3f too high (noise floor ~0.1)", hold)
	}
	train := ref.RMSE(300, uf, pf, r.TrainEdges)
	if train > trainRMSE*3+0.2 {
		t.Errorf("distributed train RMSE %.3f far above single-thread %.3f", train, trainRMSE)
	}
}

// TestCFModesAllConverge: every mode trains to a usable model; SSP and
// AAP honor the staleness bound without diverging.
func TestCFModesAllConverge(t *testing.T) {
	r := gen.Bipartite(200, 40, 10, 4, 0.9, 67)
	cfg := cf.Config{Users: 200, Products: 40, Rank: 4, Epochs: 25, Seed: 2}
	p, err := partition.Build(r.G, 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []core.Options{
		{Mode: core.BSP},
		{Mode: core.AP},
		{Mode: core.SSP, Staleness: 3},
		{Mode: core.AAP, Staleness: 3},
	} {
		res, err := core.Run(p, cf.Job(cfg), opts)
		if err != nil {
			t.Fatalf("%s: %v", opts.Mode, err)
		}
		uf, pf := cf.Factors(p, res.Values, cfg)
		if rmse := ref.RMSE(200, uf, pf, r.HoldoutEdges); rmse > 0.6 {
			t.Errorf("%s: holdout RMSE %.3f", opts.Mode, rmse)
		}
	}
}

// TestCFSingleFragmentMatchesLocalSGD: with one fragment there is no
// communication, so the distributed trainer is plain SGD over all edges.
func TestCFSingleFragmentMatchesLocalSGD(t *testing.T) {
	r := gen.Bipartite(100, 20, 8, 3, 1.0, 71)
	cfg := cf.Config{Users: 100, Products: 20, Rank: 3, Epochs: 15, Seed: 3}
	p, err := partition.Build(r.G, 1, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, cf.Job(cfg), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalMsgs != 0 {
		t.Errorf("single fragment shipped %d messages", res.Stats.TotalMsgs)
	}
	uf, pf := cf.Factors(p, res.Values, cfg)
	if rmse := ref.RMSE(100, uf, pf, r.TrainEdges); rmse > 0.4 {
		t.Errorf("train RMSE %.3f", rmse)
	}
}

// TestSSSPOnSimulatorMatchesEngine: the two engines compute identical
// fixpoints for the same job and partition.
func TestSSSPOnSimulatorMatchesEngine(t *testing.T) {
	g := gen.Grid(30, 30, 73)
	p, err := partition.Build(g, 6, partition.Range{})
	if err != nil {
		t.Fatal(err)
	}
	real, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP})
	if err != nil {
		t.Fatal(err)
	}
	simres, err := sim.Run(p, sssp.Job(0), sim.Config{Options: core.Options{Mode: core.AAP}})
	if err != nil {
		t.Fatal(err)
	}
	for v := range real.Values {
		if real.Values[v] != simres.Values[v] {
			t.Fatalf("vertex %d: engine %v sim %v", v, real.Values[v], simres.Values[v])
		}
	}
}

// TestSSSPSourceAbsent: a source not in the graph leaves every distance
// infinite.
func TestSSSPSourceAbsent(t *testing.T) {
	g := gen.Grid(5, 5, 79)
	p, err := partition.Build(g, 2, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, sssp.Job(99999), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range res.Values {
		if !math.IsInf(d, 1) {
			t.Fatalf("vertex %d reachable from absent source: %v", v, d)
		}
	}
}

// TestRefPageRankAgreesWithVCentricFormulation pins the shared
// formulation: the oracle itself conserves mass on dangling-free graphs.
func TestRefPageRankAgreesWithVCentricFormulation(t *testing.T) {
	g := gen.SmallWorld(200, 2, 0, false, 83)
	scores := ref.PageRank(g, 0.85, 1e-12, 2000)
	var sum float64
	for _, s := range scores {
		sum += s
	}
	if math.Abs(sum-200) > 0.01 {
		t.Errorf("reference total mass %v", sum)
	}
}
