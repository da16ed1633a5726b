package partition_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/par"
	"aap/internal/partition"
)

func strategies() []partition.Strategy {
	return []partition.Strategy{
		partition.Hash{},
		partition.Range{},
		partition.BFSLocality{Seed: 1},
		partition.Skewed{Ratio: 3, Seed: 2},
	}
}

func TestBuildCoversAllVertices(t *testing.T) {
	g := gen.PowerLaw(500, 4, 2.1, false, 3)
	for _, s := range strategies() {
		for _, m := range []int{1, 2, 7, 16} {
			p, err := partition.Build(g, m, s)
			if err != nil {
				t.Fatalf("%s m=%d: %v", s.Name(), m, err)
			}
			if p.M != m || len(p.Frags) != m {
				t.Fatalf("%s: wrong fragment count", s.Name())
			}
			total := 0
			for i, f := range p.Frags {
				if f.Lo != p.Ranges[i] || f.Hi != p.Ranges[i+1] {
					t.Fatalf("%s: fragment %d range mismatch", s.Name(), i)
				}
				total += f.NumOwned()
			}
			if total != g.NumVertices() {
				t.Fatalf("%s m=%d: owned %d of %d vertices", s.Name(), m, total, g.NumVertices())
			}
		}
	}
}

func TestOwnerMatchesRanges(t *testing.T) {
	g := gen.Grid(20, 20, 5)
	p, err := partition.Build(g, 5, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < int32(p.G.NumVertices()); v++ {
		o := p.Owner(v)
		if !p.Frags[o].Owns(v) {
			t.Fatalf("Owner(%d)=%d but fragment does not own it", v, o)
		}
	}
}

// TestBorderSetsMatchBruteForce recomputes the stored F.O and the
// derived F.I by definition and compares, for random graphs.
func TestBorderSetsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		g := gen.Random(n, n*3, false, seed)
		m := 2 + rng.Intn(5)
		p, err := partition.Build(g, m, partition.Hash{})
		if err != nil {
			return false
		}
		for _, f := range p.Frags {
			in := map[int32]bool{}
			out := map[int32]bool{}
			for v := int32(0); v < int32(p.G.NumVertices()); v++ {
				for _, u := range p.G.Out(v) {
					if p.Owner(v) == p.Owner(u) {
						continue
					}
					if p.Owner(v) == f.ID {
						out[u] = true
					}
					if p.Owner(u) == f.ID {
						in[u] = true
					}
				}
			}
			if !sameSet(copyList(f), out) || !sameSet(f.InBorder(), in) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// copyList collects F.O in the order Copies walks it.
func copyList(f *partition.Fragment) []int32 {
	var out []int32
	for _, v := range f.Copies() {
		out = append(out, v)
	}
	return out
}

func sameSet(got []int32, want map[int32]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, v := range got {
		if !want[v] {
			return false
		}
	}
	return true
}

func TestSlotsAndSlotMapping(t *testing.T) {
	g := gen.Grid(10, 10, 7)
	p, err := partition.Build(g, 4, partition.Range{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Frags {
		if f.Slots() != f.NumOwned()+len(copyList(f)) {
			t.Fatalf("Slots() inconsistent")
		}
		seen := map[int32]bool{}
		for v := f.Lo; v < f.Hi; v++ {
			s := f.Slot(v)
			if s < 0 || int(s) >= f.NumOwned() || seen[s] {
				t.Fatalf("owned slot %d invalid", s)
			}
			seen[s] = true
		}
		for _, v := range copyList(f) {
			s := f.Slot(v)
			if int(s) < f.NumOwned() || int(s) >= f.Slots() || seen[s] {
				t.Fatalf("copy slot %d invalid", s)
			}
			seen[s] = true
			if f.OutSlot(v) != s-int32(f.NumOwned()) {
				t.Fatalf("OutSlot disagrees with Slot")
			}
		}
		// Vertices neither owned nor copies map to -1.
		for v := int32(0); v < int32(p.G.NumVertices()); v++ {
			if !f.Owns(v) && f.OutSlot(v) < 0 && f.Slot(v) != -1 {
				t.Fatalf("foreign vertex %d has slot %d", v, f.Slot(v))
			}
		}
	}
}

func TestHoldersInverseOfOut(t *testing.T) {
	g := gen.PowerLaw(200, 5, 2.1, false, 9)
	p, err := partition.Build(g, 6, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	// The routing index is read off the F.O bitmaps: fragment j holds v
	// (OutSlot(v) >= 0) iff Copies yields v.
	for j, f := range p.Frags {
		out := map[int32]bool{}
		for _, v := range copyList(f) {
			out[v] = true
		}
		for v := int32(0); v < int32(p.G.NumVertices()); v++ {
			if holds := f.OutSlot(v) >= 0; holds != out[v] {
				t.Fatalf("fragment %d: OutSlot(%d) >= 0 is %v, v in Out is %v", j, v, holds, out[v])
			}
		}
	}
}

func TestRelabelPreservesGraphSemantics(t *testing.T) {
	g := gen.PowerLaw(300, 4, 2.1, true, 11)
	p, err := partition.Build(g, 8, partition.BFSLocality{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.G.NumVertices() != g.NumVertices() || p.G.NumEdges() != g.NumEdges() {
		t.Fatal("partitioned graph changed size")
	}
	// Spot-check per-vertex out-degree via external ids.
	for v := int32(0); v < int32(g.NumVertices()); v += 17 {
		id := g.IDOf(v)
		pv, ok := p.G.IndexOf(id)
		if !ok {
			t.Fatalf("vertex %d lost", id)
		}
		if p.G.OutDegree(pv) != g.OutDegree(v) {
			t.Fatalf("degree of %d changed", id)
		}
	}
}

func TestSkewedPartitionRatio(t *testing.T) {
	g := gen.PowerLaw(5000, 6, 2.1, false, 13)
	for _, ratio := range []float64{1, 3, 5, 7, 9} {
		p, err := partition.Build(g, 8, partition.Skewed{Ratio: ratio, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := p.Skew()
		if ratio == 1 {
			if got > 2.5 {
				t.Errorf("ratio 1: skew %v too high", got)
			}
			continue
		}
		if got < ratio*0.6 || got > ratio*1.6 {
			t.Errorf("requested skew %v, got %v", ratio, got)
		}
	}
}

func TestSkewMonotone(t *testing.T) {
	g := gen.PowerLaw(3000, 5, 2.1, false, 17)
	prev := 0.0
	for _, ratio := range []float64{1, 3, 5, 9} {
		p, err := partition.Build(g, 6, partition.Skewed{Ratio: ratio, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := p.Skew()
		if s+0.5 < prev {
			t.Errorf("skew not monotone: ratio %v gave %v after %v", ratio, s, prev)
		}
		prev = s
	}
}

func TestBuildErrors(t *testing.T) {
	g := gen.Grid(3, 3, 1)
	if _, err := partition.Build(g, 0, partition.Hash{}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := partition.Build(g, 2, badStrategy{}); err == nil {
		t.Error("bad strategy accepted")
	}
	if _, err := partition.Build(g, 2, shortStrategy{}); err == nil {
		t.Error("short assignment accepted")
	}
}

type badStrategy struct{}

func (badStrategy) Name() string { return "bad" }
func (badStrategy) Assign(g *graph.Graph, m int) []int32 {
	return make([]int32, g.NumVertices()+1)
}

type shortStrategy struct{}

func (shortStrategy) Name() string { return "short" }
func (shortStrategy) Assign(g *graph.Graph, m int) []int32 {
	out := make([]int32, g.NumVertices())
	for i := range out {
		out[i] = int32(m) // out of range
	}
	return out
}

func TestMoreFragmentsThanVertices(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddEdge(0, 1)
	g := b.Build()
	p, err := partition.Build(g, 5, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	owned := 0
	for _, f := range p.Frags {
		owned += f.NumOwned()
	}
	if owned != 2 {
		t.Fatalf("owned %d, want 2", owned)
	}
	if p.Skew() < 1 {
		t.Error("skew below 1")
	}
}

// TestMeanOutWeight: the memoized mean is the mean of the fragment's own
// out-edge weights, the same for concurrent first callers (exercised
// under -race in CI), and 1 where there is nothing to average — an
// unweighted graph, a fragment without edges.
func TestMeanOutWeight(t *testing.T) {
	g := gen.PowerLaw(400, 5, 2.1, true, 9)
	p, err := partition.Build(g, 3, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Frags {
		var sum float64
		var n int
		for v := f.Lo; v < f.Hi; v++ {
			for _, w := range p.G.OutWeights(v) {
				sum += w
				n++
			}
		}
		got := make([]float64, 4)
		par.Do(len(got), func(w int) { got[w] = f.MeanOutWeight() })
		for _, m := range got {
			if m != sum/float64(n) {
				t.Fatalf("fragment %d: mean %v, want %v", f.ID, m, sum/float64(n))
			}
		}
	}

	b := graph.NewBuilder(true)
	b.AddEdge(0, 1)
	p, err = partition.Build(b.Build(), 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Frags {
		if m := f.MeanOutWeight(); m != 1 {
			t.Fatalf("unweighted fragment %d (%d owned): mean %v, want 1", f.ID, f.NumOwned(), m)
		}
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range strategies() {
		if s.Name() == "" {
			t.Error("empty strategy name")
		}
	}
	g := gen.Grid(4, 4, 1)
	p, _ := partition.Build(g, 2, partition.Hash{})
	if p.Strategy() != "hash" {
		t.Errorf("Strategy() = %q", p.Strategy())
	}
}

// TestParseStrategy: the names the command lines take resolve to the
// strategy of that name; anything else is an error listing them.
func TestParseStrategy(t *testing.T) {
	for _, name := range []string{"hash", "range", "bfs"} {
		if s, err := partition.ParseStrategy(name); err != nil || s.Name() != name {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, s, err)
		}
	}
	for _, name := range []string{"", "BFS", "skewed", "metis"} {
		if s, err := partition.ParseStrategy(name); err == nil || !strings.Contains(err.Error(), "hash, range, bfs") {
			t.Errorf("ParseStrategy(%q) = %v, %v; want an error listing the names", name, s, err)
		}
	}
}
