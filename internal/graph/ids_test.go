package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// idSets are the kinds of external id the 4-byte id codes must carry:
// dense ones (stored as themselves), negative ones, ones at or past
// 2^31, and ones past the dense range that still fit 31 bits (all three
// stored as ^ their slot in the sparse table), alone and mixed.
func idSets() map[string][]VertexID {
	dense := make([]VertexID, 40)
	for i := range dense {
		dense[i] = VertexID(i)
	}
	negative := []VertexID{-1, -2, -7, -1000, -1 << 31, -1<<31 - 1, math.MinInt64}
	huge := []VertexID{1 << 31, 1<<31 + 1, 1 << 32, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	past := []VertexID{50_000, 70_001, 1 << 20, 1<<31 - 1}
	mixed := append(append(append(append([]VertexID(nil), dense...), negative...), huge...), past...)
	rand.New(rand.NewSource(3)).Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	return map[string][]VertexID{"dense": dense, "negative": negative, "huge": huge, "past": past, "mixed": mixed}
}

// idEdges draws m weighted edges over ids, each id on at least one.
func idEdges(ids []VertexID, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	var es []Edge
	for i, id := range ids {
		es = append(es, Edge{id, ids[(i+1)%len(ids)], float64(i) / 4})
	}
	for len(es) < m {
		es = append(es, Edge{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], float64(rng.Intn(64)) / 8})
	}
	return es
}

// checkIDs asserts that g's vertices are exactly ids, that every code
// is the id itself when the dense arm holds it and ^ its key's slot
// otherwise, that IndexOf(IDOf(v)) == v for every v, and that
// ResidentBytes is exact: 4 bytes a vertex plus the id index, offsets,
// adjacency and weights. It returns how many codes were dense.
func checkIDs(t *testing.T, tag string, g *Graph, ids []VertexID) (dense int) {
	t.Helper()
	n := g.NumVertices()
	if n != len(ids) {
		t.Fatalf("%s: %d vertices, want %d", tag, n, len(ids))
	}
	want := make(map[VertexID]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	for v := range int32(n) {
		id := g.IDOf(v)
		if !want[id] {
			t.Fatalf("%s: IDOf(%d) = %d, not an input id (or seen twice)", tag, v, id)
		}
		delete(want, id)
		if got, ok := g.IndexOf(id); !ok || got != v {
			t.Fatalf("%s: IndexOf(IDOf(%d) = %d) = (%d, %v)", tag, v, id, got, ok)
		}
		inDense := uint64(id) < uint64(len(g.index.dense)) && g.index.dense[id] == v
		if inDense {
			dense++
		}
		switch code := g.ids[v]; {
		case inDense && VertexID(code) != id:
			t.Fatalf("%s: dense id %d stored as %d", tag, id, code)
		case !inDense && (code >= 0 || g.index.over.keys[^code] != id):
			t.Fatalf("%s: sparse id %d stored as %d", tag, id, code)
		}
	}
	over := int64(0)
	if g.index.over != nil {
		over = int64(len(g.index.over.keys))
	}
	arcs := int64(len(g.outDst))
	wantB := 4*int64(n) + 4*int64(len(g.index.dense)) + 12*over + 4*int64(n+1) + 4*arcs
	if g.Weighted() {
		wantB += 8 * arcs
	}
	if g.directed && g.InBuilt() {
		wantB += 4*int64(n+1) + 4*arcs
	}
	if got := g.ResidentBytes(); got != wantB {
		t.Fatalf("%s: ResidentBytes = %d, want %d", tag, got, wantB)
	}
	return dense
}

// externalEdges lists g's edges by external ids, in g's edge order
// translated, as a sorted multiset key.
func externalEdges(g *Graph) map[Edge]int {
	es := make(map[Edge]int)
	g.Edges(func(s, d int32, w float64) {
		a, b := g.IDOf(s), g.IDOf(d)
		if !g.Directed() && b < a {
			a, b = b, a
		}
		es[Edge{a, b, w}]++
	})
	return es
}

func sameEdges(t *testing.T, tag string, got, want *Graph) {
	t.Helper()
	a, b := externalEdges(got), externalEdges(want)
	if len(a) != len(b) {
		t.Fatalf("%s: %d distinct edges, want %d", tag, len(a), len(b))
	}
	for e, c := range b {
		if a[e] != c {
			t.Fatalf("%s: edge %v appears %d times, want %d", tag, e, a[e], c)
		}
	}
}

// TestIDCodes takes every kind of id, alone and mixed, through the
// Builder (with and without a dense range), ParseEdgeList, Relabel,
// AsUndirected and a WriteEdgeList → ReadEdgeListFile round trip, and
// checks the id codes and the byte count of each graph (checkIDs).
func TestIDCodes(t *testing.T) {
	for name, ids := range idSets() {
		es := idEdges(ids, 3*len(ids), int64(len(ids)))
		var text bytes.Buffer
		text.WriteString("# directed=true weighted=true\n")
		for _, e := range es {
			fmt.Fprintf(&text, "%d %d %g\n", e.Src, e.Dst, e.Weight)
		}
		graphs := map[string]*Graph{}
		for _, reserve := range []bool{false, true} {
			b := NewBuilder(true)
			if reserve {
				b.Reserve(len(ids), len(es)) // ids in [0, len(ids)) index the dense arm
			}
			for _, e := range es {
				b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
			}
			graphs[fmt.Sprintf("builder/reserve=%v", reserve)] = b.Build()
		}
		parsed, err := ParseEdgeList(text.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphs["parse"] = parsed
		for how, g := range graphs {
			tag := name + "/" + how
			dense := checkIDs(t, tag, g, ids)
			if name == "mixed" && how != "builder/reserve=false" && (dense == 0 || dense == len(ids)) {
				t.Fatalf("%s: %d of %d codes dense, want both kinds", tag, dense, len(ids))
			}
			sameEdges(t, tag, g, graphs["parse"])

			perm := rand.New(rand.NewSource(9)).Perm(g.NumVertices())
			perm32 := make([]int32, len(perm))
			for i, p := range perm {
				perm32[i] = int32(p)
			}
			rg, err := Relabel(g, perm32)
			if err != nil {
				t.Fatal(err)
			}
			checkIDs(t, tag+"/relabel", rg, ids)
			for v := range int32(g.NumVertices()) {
				if rg.IDOf(perm32[v]) != g.IDOf(v) {
					t.Fatalf("%s/relabel: IDOf(%d) = %d, want %d", tag, perm32[v], rg.IDOf(perm32[v]), g.IDOf(v))
				}
			}
			sameEdges(t, tag+"/relabel", rg, g)
			ug := AsUndirected(rg)
			checkIDs(t, tag+"/relabel/undirected", ug, ids)
			sameEdges(t, tag+"/relabel/undirected", ug, asUndirectedRef(rg))

			path := filepath.Join(t.TempDir(), "g.txt")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteEdgeList(f, ug); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			back, err := ReadEdgeListFile(path)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			checkIDs(t, tag+"/roundtrip", back, ids)
			sameEdges(t, tag+"/roundtrip", back, ug)
		}
	}
}
