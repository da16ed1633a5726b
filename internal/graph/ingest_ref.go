// Sequential reference implementations of the ingest path, retained from
// the pre-parallel pipeline. They are the oracles for the differential
// tests in ingest_test.go: buildRef is the single-threaded map-based CSR
// build, relabelRef and asUndirectedRef re-feed every edge through a
// Builder. The parallel pipeline in ingest.go must match them bit for
// bit — same vertex order, same adjacency order.
package graph

import "sort"

// buildRef is the sequential reference Build: per-edge emission into
// cursor-tracked rows, then a stable per-row comparison sort.
func (b *Builder) buildRef() *Graph {
	n := len(b.ids)
	m := len(b.srcs)
	g := &Graph{
		directed: b.directed,
		index:    idTable{over: newFlatIntern(n)},
		numEdges: int64(m),
	}
	// The oracle derives its index from ids alone, filed under the
	// overflow arm: nothing of Builder.index or of Build's dense path.
	for i, id := range b.ids {
		g.index.over.getOrPut(id, int32(i))
	}
	g.ids = g.index.codes(b.ids)

	// Out-adjacency. Undirected graphs store each edge in both lists.
	outDeg := make([]uint32, n+1)
	for i := 0; i < m; i++ {
		outDeg[b.srcs[i]+1]++
		if !b.directed && b.srcs[i] != b.dsts[i] {
			outDeg[b.dsts[i]+1]++
		}
	}
	for i := 0; i < n; i++ {
		outDeg[i+1] += outDeg[i]
	}
	g.outOff = outDeg
	total := g.outOff[n]
	g.outDst = make([]int32, total)
	if b.weighted {
		g.outW = make([]float64, total)
	}
	cursor := make([]uint32, n)
	copy(cursor, g.outOff[:n])
	emit := func(s, d int32, w float64) {
		p := cursor[s]
		cursor[s]++
		g.outDst[p] = d
		if g.outW != nil {
			g.outW[p] = w
		}
	}
	for i := 0; i < m; i++ {
		emit(b.srcs[i], b.dsts[i], b.ws[i])
		// Undirected edges appear in both endpoint lists; self-loops are
		// stored once so Edges reports them exactly once.
		if !b.directed && b.srcs[i] != b.dsts[i] {
			emit(b.dsts[i], b.srcs[i], b.ws[i])
		}
	}
	sortAdjacencyRef(g.outOff, g.outDst, g.outW, n)

	if b.directed {
		// In-adjacency, unweighted like the stored in-side, installed
		// before anyone can ask for it so the lazy build never runs.
		inDeg := make([]uint32, n+1)
		for i := 0; i < m; i++ {
			inDeg[b.dsts[i]+1]++
		}
		for i := 0; i < n; i++ {
			inDeg[i+1] += inDeg[i]
		}
		in := &adjacency{off: inDeg, adj: make([]int32, m)}
		copy(cursor, in.off[:n])
		for i := 0; i < m; i++ {
			d := b.dsts[i]
			p := cursor[d]
			cursor[d]++
			in.adj[p] = b.srcs[i]
		}
		sortAdjacencyRef(in.off, in.adj, nil, n)
		g.in.Store(in)
	}
	return g
}

// sortAdjacencyRef stable-sorts each adjacency list by neighbor index,
// keeping the weight slice parallel. Stability pins the order of parallel
// edges to their insertion order, the canonical adjacency order both the
// reference and the parallel pipeline produce.
func sortAdjacencyRef(off []uint32, adj []int32, w []float64, n int) {
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		if hi-lo < 2 {
			continue
		}
		seg := adj[lo:hi]
		if w == nil {
			sort.SliceStable(seg, func(i, j int) bool { return seg[i] < seg[j] })
			continue
		}
		wseg := w[lo:hi]
		sort.Stable(&adjSorter{seg, wseg})
	}
}

type adjSorter struct {
	adj []int32
	w   []float64
}

func (s *adjSorter) Len() int           { return len(s.adj) }
func (s *adjSorter) Less(i, j int) bool { return s.adj[i] < s.adj[j] }
func (s *adjSorter) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// asUndirectedRef is the reference AsUndirected: re-feed every directed
// edge through an undirected Builder.
func asUndirectedRef(g *Graph) *Graph {
	if !g.directed {
		return g
	}
	b := NewBuilder(false)
	if g.Weighted() {
		b.SetWeighted()
	}
	for v := range int32(g.NumVertices()) {
		b.AddVertex(g.IDOf(v))
	}
	g.Edges(func(src, dst int32, w float64) {
		if g.Weighted() {
			b.AddWeightedEdge(g.IDOf(src), g.IDOf(dst), w)
		} else {
			b.AddEdge(g.IDOf(src), g.IDOf(dst))
		}
	})
	return b.buildRef()
}

// relabelRef is the reference Relabel: pre-create vertices in permuted
// order, then re-feed every edge through the Builder's id map.
func relabelRef(g *Graph, perm []int32) (*Graph, error) {
	n := g.NumVertices()
	if err := checkPerm(perm, n); err != nil {
		return nil, err
	}
	b := NewBuilder(g.directed)
	if g.Weighted() {
		b.SetWeighted()
	}
	newIDs := make([]VertexID, n)
	for v := 0; v < n; v++ {
		newIDs[perm[v]] = g.IDOf(int32(v))
	}
	for _, id := range newIDs {
		b.AddVertex(id)
	}
	g.Edges(func(src, dst int32, w float64) {
		if g.Weighted() {
			b.AddWeightedEdge(g.IDOf(src), g.IDOf(dst), w)
		} else {
			b.AddEdge(g.IDOf(src), g.IDOf(dst))
		}
	})
	return b.buildRef(), nil
}
