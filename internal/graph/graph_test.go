package graph_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"aap/internal/graph"
)

func TestBuilderBasics(t *testing.T) {
	b := graph.NewBuilder(true)
	b.SetWeighted()
	b.AddWeightedEdge(10, 20, 1.5)
	b.AddWeightedEdge(20, 30, 2.5)
	b.AddWeightedEdge(10, 30, 3.5)
	b.AddVertex(99)
	g := b.Build()

	if g.NumVertices() != 4 {
		t.Fatalf("vertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	if !g.Directed() || !g.Weighted() {
		t.Fatal("directed/weighted flags wrong")
	}
	v10, ok := g.IndexOf(10)
	if !ok {
		t.Fatal("vertex 10 missing")
	}
	if g.OutDegree(v10) != 2 {
		t.Errorf("outdeg(10) = %d, want 2", g.OutDegree(v10))
	}
	v30, _ := g.IndexOf(30)
	if g.InDegree(v30) != 2 {
		t.Errorf("indeg(30) = %d, want 2", g.InDegree(v30))
	}
	v99, _ := g.IndexOf(99)
	if g.OutDegree(v99) != 0 || g.InDegree(v99) != 0 {
		t.Error("isolated vertex has edges")
	}
	if g.IDOf(v10) != 10 {
		t.Errorf("IDOf round trip failed")
	}
	if _, ok := g.IndexOf(12345); ok {
		t.Error("nonexistent id resolved")
	}
}

func TestUndirectedAdjacencyBothDirections(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	v2, _ := g.IndexOf(2)
	if g.OutDegree(v2) != 2 {
		t.Fatalf("undirected degree(2) = %d, want 2", g.OutDegree(v2))
	}
	if !reflect.DeepEqual(g.In(v2), g.Out(v2)) {
		t.Error("In and Out must alias for undirected graphs")
	}
	if g.NumEdges() != 2 {
		t.Errorf("logical edges = %d, want 2", g.NumEdges())
	}
}

func TestEdgesVisitsEachOnce(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := b.Build()
	count := 0
	g.Edges(func(src, dst int32, w float64) { count++ })
	if count != 3 {
		t.Errorf("Edges visited %d, want 3", count)
	}
}

func TestParallelEdgesPreserved(t *testing.T) {
	b := graph.NewBuilder(true)
	b.SetWeighted()
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(0, 1, 2)
	g := b.Build()
	v0, _ := g.IndexOf(0)
	if g.OutDegree(v0) != 2 {
		t.Fatalf("parallel edges collapsed: outdeg = %d", g.OutDegree(v0))
	}
	ws := g.OutWeights(v0)
	if ws[0]+ws[1] != 3 {
		t.Errorf("weights = %v", ws)
	}
}

func TestSelfLoop(t *testing.T) {
	b := graph.NewBuilder(true)
	b.AddEdge(5, 5)
	g := b.Build()
	v, _ := g.IndexOf(5)
	if g.OutDegree(v) != 1 || g.InDegree(v) != 1 {
		t.Errorf("self loop degrees: out=%d in=%d", g.OutDegree(v), g.InDegree(v))
	}
}

// TestAdjacencySortedProperty: adjacency lists come out sorted for any
// random edge set.
func TestAdjacencySortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(true)
		n := 1 + rng.Intn(30)
		for e := 0; e < 60; e++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.Build()
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			out := g.Out(v)
			if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCSRPreservesAdjacencyProperty: building a CSR preserves exactly the
// multiset of edges added, for random graphs.
func TestCSRPreservesAdjacencyProperty(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(directed)
		n := 2 + rng.Intn(20)
		type pair struct{ s, d graph.VertexID }
		want := map[pair]int{}
		for e := 0; e < 40; e++ {
			s, d := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			b.AddEdge(s, d)
			if !directed && d < s {
				s, d = d, s
			}
			want[pair{s, d}]++
		}
		g := b.Build()
		got := map[pair]int{}
		g.Edges(func(src, dst int32, w float64) {
			s, d := g.IDOf(src), g.IDOf(dst)
			if !directed && d < s {
				s, d = d, s
			}
			got[pair{s, d}]++
		})
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRelabelPreservesEdges(t *testing.T) {
	b := graph.NewBuilder(true)
	b.SetWeighted()
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 2, 2)
	b.AddWeightedEdge(2, 0, 3)
	g := b.Build()
	perm := []int32{2, 0, 1}
	rg, err := graph.Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	if rg.NumVertices() != 3 || rg.NumEdges() != 3 {
		t.Fatal("size changed")
	}
	// Every original edge must exist with the same weight, by external id.
	g.Edges(func(src, dst int32, w float64) {
		rs, _ := rg.IndexOf(g.IDOf(src))
		rd, _ := rg.IndexOf(g.IDOf(dst))
		found := false
		ws := rg.OutWeights(rs)
		for i, u := range rg.Out(rs) {
			if u == rd && ws[i] == w {
				found = true
			}
		}
		if !found {
			t.Errorf("edge %d->%d (w=%v) lost after relabel", g.IDOf(src), g.IDOf(dst), w)
		}
	})
}

func TestRelabelRejectsBadPermutations(t *testing.T) {
	b := graph.NewBuilder(true)
	b.AddEdge(0, 1)
	g := b.Build()
	for _, perm := range [][]int32{{0}, {0, 0}, {0, 5}, {1, -1}} {
		if _, err := graph.Relabel(g, perm); err == nil {
			t.Errorf("permutation %v accepted", perm)
		}
	}
}

func TestAsUndirected(t *testing.T) {
	b := graph.NewBuilder(true)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	g := b.Build()
	u := graph.AsUndirected(g)
	if u.Directed() {
		t.Fatal("still directed")
	}
	v1, _ := u.IndexOf(1)
	if u.OutDegree(v1) != 2 {
		t.Errorf("degree(1) = %d, want 2", u.OutDegree(v1))
	}
	// Undirected input returns the same graph.
	if graph.AsUndirected(u) != u {
		t.Error("AsUndirected should be identity on undirected graphs")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	b := graph.NewBuilder(true)
	b.SetWeighted()
	b.AddWeightedEdge(3, 7, 1.25)
	b.AddWeightedEdge(7, 9, 2.5)
	b.AddVertex(42) // isolated
	g := b.Build()

	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.ParseEdgeList(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size: %d/%d vs %d/%d", g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	if g2.Directed() != g.Directed() || g2.Weighted() != g.Weighted() {
		t.Error("flags lost")
	}
	if _, ok := g2.IndexOf(42); !ok {
		t.Error("isolated vertex lost")
	}
	v3, _ := g2.IndexOf(3)
	ws := g2.OutWeights(v3)
	if len(ws) != 1 || ws[0] != 1.25 {
		t.Errorf("weight lost: %v", ws)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{
		"1 2 3 4\n",
		"x y\n",
		"1 y\n",
		"1 2 z\n",
		"v\n",
		"v x\n",
	} {
		if _, err := graph.ParseEdgeList([]byte(bad)); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

func TestReadEdgeListSNAPStyle(t *testing.T) {
	in := "# some comment\n# more\n0 1\n1 2\n\n2 0\n"
	g, err := graph.ParseEdgeList([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %d/%d", g.NumVertices(), g.NumEdges())
	}
	if !g.Directed() || g.Weighted() {
		t.Error("SNAP default should be directed unweighted")
	}
}

func TestEmptyEdgeList(t *testing.T) {
	g, err := graph.ParseEdgeList(nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 {
		t.Error("empty input should give empty graph")
	}
}

// TestWriteEdgeListDirectedIsolated: writing a directed graph finds its
// isolated vertices without building its in-side — a vertex with only
// in-edges is not isolated, one with no edges is — and the file round
// trips them.
func TestWriteEdgeListDirectedIsolated(t *testing.T) {
	b := graph.NewBuilder(true)
	b.AddVertex(5) // isolated
	b.AddEdge(1, 2)
	b.AddEdge(3, 2) // 2 has only in-edges
	b.AddVertex(8)  // isolated
	b.AddEdge(4, 4) // self-loop only
	g := b.Build()

	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if g.InBuilt() {
		t.Fatal("WriteEdgeList built the directed graph's in-side")
	}
	var isolated []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "v ") {
			isolated = append(isolated, line)
		}
	}
	if !reflect.DeepEqual(isolated, []string{"v 5", "v 8"}) {
		t.Fatalf("isolated-vertex lines %q, want [v 5 v 8]", isolated)
	}
	g2, err := graph.ParseEdgeList(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size: %d/%d vs %d/%d", g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		v2, ok := g2.IndexOf(g.IDOf(v))
		if !ok {
			t.Fatalf("vertex %d lost", g.IDOf(v))
		}
		if g2.OutDegree(v2) != g.OutDegree(v) || g2.InDegree(v2) != g.InDegree(v) {
			t.Fatalf("vertex %d: degrees %d/%d after the round trip, want %d/%d",
				g.IDOf(v), g2.OutDegree(v2), g2.InDegree(v2), g.OutDegree(v), g.InDegree(v))
		}
	}
}
