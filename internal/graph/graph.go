// Package graph provides the immutable in-memory graph substrate used by
// every engine in this repository: a compressed sparse row (CSR)
// representation with out- and in-adjacency, optional edge weights on
// the out-side, and stable external vertex identifiers.
//
// Graphs are constructed through a Builder and immutable afterwards,
// apart from a directed graph's in-side, which the first In or InDegree
// builds once; it is safe for concurrent readers, so graphs can be
// shared freely across workers without locks.
package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// VertexID is the external (application-level) identifier of a vertex.
// Internally vertices are dense int32 indexes in [0, NumVertices).
type VertexID int64

// Edge is a single directed edge between external vertex identifiers.
// For undirected graphs an Edge represents both directions.
type Edge struct {
	Src, Dst VertexID
	Weight   float64
}

// Graph is an immutable directed or undirected graph in CSR form.
//
// For undirected graphs every edge appears in the out-adjacency of both
// endpoints, and the in-adjacency aliases the out-adjacency. A directed
// graph stores only its out-adjacency until the first In or InDegree
// transposes it into the in-adjacency, once, safe for concurrent callers;
// jobs that push along out-edges never pay for it. A Graph must not be
// copied.
type Graph struct {
	directed bool

	ids []VertexID // internal index -> external id

	// index maps external id -> base index: the index the vertex had in
	// the graph Build produced. Relabeled graphs share this table with
	// their ancestor and compose permutations in baseToCur instead of
	// rebuilding it, so relabeling performs zero table operations.
	index     idTable
	baseToCur []int32 // base index -> current index; nil means identity

	outOff []int64   // len n+1
	outDst []int32   // len m (directed) or 2m (undirected)
	outW   []float64 // parallel to outDst; nil when unweighted

	// in is the in-side (no weights), nil on a directed graph until the
	// first In or InDegree builds it under inOnce.
	in     atomic.Pointer[adjacency]
	inOnce sync.Once

	numEdges int64 // logical edge count (undirected edges counted once)
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.ids) }

// NumEdges returns the number of logical edges (undirected edges are
// counted once).
func (g *Graph) NumEdges() int64 { return g.numEdges }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.outW != nil }

// IDOf returns the external identifier of internal vertex v.
func (g *Graph) IDOf(v int32) VertexID { return g.ids[v] }

// IndexOf returns the internal index of the external identifier id and
// whether it exists.
func (g *Graph) IndexOf(id VertexID) (int32, bool) {
	v, ok := g.index.get(id)
	if ok && g.baseToCur != nil {
		v = g.baseToCur[v]
	}
	return v, ok
}

// OutDegree returns the out-degree of internal vertex v.
func (g *Graph) OutDegree(v int32) int { return int(g.outOff[v+1] - g.outOff[v]) }

// OutSpan returns the total number of stored out-entries of the vertex
// range [lo, hi): one subtraction on the CSR offsets, replacing
// per-vertex degree loops when partitioners size contiguous fragments.
func (g *Graph) OutSpan(lo, hi int32) int64 { return g.outOff[hi] - g.outOff[lo] }

// OutShards splits the vertex range into p contiguous shards of
// near-equal out-edge span, the balance edge-parallel sweeps over the
// graph (border computation, future analytics) need under skew.
func (g *Graph) OutShards(p int) []int32 { return vertexShardsByWork(g.outOff, p) }

// adjacency is one unweighted CSR side.
type adjacency struct {
	off []int64
	adj []int32
}

// inSide returns the in-side, building it on the first call.
func (g *Graph) inSide() *adjacency {
	if a := g.in.Load(); a != nil {
		return a
	}
	return g.buildIn()
}

// buildIn aliases the out-side of an undirected graph, or transposes the
// out-side of a directed one (transposeCSR in ingest.go); concurrent
// callers wait for the one build.
func (g *Graph) buildIn() *adjacency {
	g.inOnce.Do(func() {
		a := &adjacency{off: g.outOff, adj: g.outDst}
		if g.directed {
			a.off, a.adj, _ = transposeCSR(g.outOff, g.outDst, nil)
		}
		g.in.Store(a)
	})
	return g.in.Load()
}

// InBuilt reports whether the graph holds its in-side: always for an
// undirected graph, whose in-side is its out-side, and for a directed
// graph once In or InDegree has been called on it.
func (g *Graph) InBuilt() bool { return !g.directed || g.in.Load() != nil }

// InDegree returns the in-degree of internal vertex v. On a directed
// graph the first call builds the in-side.
func (g *Graph) InDegree(v int32) int {
	in := g.inSide()
	return int(in.off[v+1] - in.off[v])
}

// Out returns the out-neighbors of v. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) Out(v int32) []int32 { return g.outDst[g.outOff[v]:g.outOff[v+1]] }

// OutWeights returns the weights parallel to Out(v); nil for unweighted
// graphs.
func (g *Graph) OutWeights(v int32) []float64 {
	if g.outW == nil {
		return nil
	}
	return g.outW[g.outOff[v]:g.outOff[v+1]]
}

// In returns the in-neighbors of v, ascending, parallel edges in input
// order. For undirected graphs In(v) equals Out(v); on a directed graph
// the first call builds the in-side. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) In(v int32) []int32 {
	in := g.inSide()
	return in.adj[in.off[v]:in.off[v+1]]
}

// Edges calls fn for every logical edge with internal endpoints. For
// undirected graphs each edge is reported once with src <= dst.
func (g *Graph) Edges(fn func(src, dst int32, w float64)) {
	for v := int32(0); v < int32(len(g.ids)); v++ {
		ws := g.OutWeights(v)
		for i, u := range g.Out(v) {
			if !g.directed && u < v {
				continue
			}
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			fn(v, u, w)
		}
	}
}

// idTable resolves external ids to int32 indexes without hashing the
// common case: ids in [0, len(dense)) index an array directly (-1 marks
// an absent id), everything else (negative, huge, sparse) lives in the
// open-addressed over table. Builder, Graph and the edge-list loader all
// resolve ids through this one type; the loader hands the table it
// assembled to the Graph it builds, so no id is ever re-inserted.
type idTable struct {
	dense []int32
	over  *flatIntern // nil until the first id outside the dense range
}

// get returns the index stored for id and whether it is present.
func (t *idTable) get(id VertexID) (int32, bool) {
	if uint64(id) < uint64(len(t.dense)) {
		if v := t.dense[id]; v >= 0 {
			return v, true
		}
	}
	// Not else: a Builder files ids under over until Reserve tells it the
	// dense range, so a dense miss still consults over.
	if t.over != nil {
		if v := t.over.get(id); v >= 0 {
			return v, true
		}
	}
	return 0, false
}

// add records id -> v for an id get just missed.
func (t *idTable) add(id VertexID, v int32) {
	if uint64(id) < uint64(len(t.dense)) {
		t.dense[id] = v
		return
	}
	if t.over == nil {
		t.over = newFlatIntern(16)
	}
	t.over.getOrPut(id, v)
}

// growDense extends the dense range to n entries, the new ones absent.
func (t *idTable) growDense(n int) {
	dense := make([]int32, n)
	for i := copy(dense, t.dense); i < n; i++ {
		dense[i] = -1
	}
	t.dense = dense
}

// clone returns a copy that shares nothing with t.
func (t *idTable) clone() idTable {
	c := idTable{dense: append([]int32(nil), t.dense...)}
	if t.over != nil {
		o := *t.over
		o.keys = append([]VertexID(nil), o.keys...)
		o.vals = append([]int32(nil), o.vals...)
		c.over = &o
	}
	return c
}

// Builder accumulates vertices and edges and produces an immutable Graph.
// Vertices are created implicitly by AddEdge; isolated vertices can be
// added with AddVertex. The builder may be reused after Build.
type Builder struct {
	directed bool
	weighted bool
	ids      []VertexID
	index    idTable
	srcs     []int32
	dsts     []int32
	ws       []float64
}

// NewBuilder returns a Builder for a directed or undirected graph.
func NewBuilder(directed bool) *Builder {
	return &Builder{directed: directed}
}

// SetWeighted declares that edges carry weights. It is implied by the
// first call to AddWeightedEdge.
func (b *Builder) SetWeighted() { b.weighted = true }

// Reserve pre-sizes the builder for n vertices and m edges so generators
// and loaders that know their size fill without growth reallocations.
func (b *Builder) Reserve(n, m int) {
	if cap(b.ids) < n {
		ids := make([]VertexID, len(b.ids), n)
		copy(ids, b.ids)
		b.ids = ids
		if len(b.index.dense) < n {
			// Callers that know n number their vertices 0..n-1: from here
			// on those ids index an array instead of hashing.
			b.index.growDense(n)
		}
	}
	if cap(b.srcs) < m {
		srcs := make([]int32, len(b.srcs), m)
		copy(srcs, b.srcs)
		b.srcs = srcs
		dsts := make([]int32, len(b.dsts), m)
		copy(dsts, b.dsts)
		b.dsts = dsts
		ws := make([]float64, len(b.ws), m)
		copy(ws, b.ws)
		b.ws = ws
	}
}

// AddVertex ensures id exists and returns its internal index.
func (b *Builder) AddVertex(id VertexID) int32 {
	if v, ok := b.index.get(id); ok {
		return v
	}
	v := int32(len(b.ids))
	b.ids = append(b.ids, id)
	b.index.add(id, v)
	return v
}

// AddEdge adds an unweighted edge (weight 1).
func (b *Builder) AddEdge(src, dst VertexID) {
	s, d := b.AddVertex(src), b.AddVertex(dst)
	b.srcs = append(b.srcs, s)
	b.dsts = append(b.dsts, d)
	b.ws = append(b.ws, 1)
}

// AddWeightedEdge adds an edge with the given weight.
func (b *Builder) AddWeightedEdge(src, dst VertexID, w float64) {
	b.weighted = true
	s, d := b.AddVertex(src), b.AddVertex(dst)
	b.srcs = append(b.srcs, s)
	b.dsts = append(b.dsts, d)
	b.ws = append(b.ws, w)
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.ids) }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.srcs) }

// Build produces the immutable Graph. Edge order within an adjacency list
// is by increasing destination index, with parallel edges preserved in
// insertion order. The id table is copied (the builder may keep growing
// its own); the CSR arrays are built by the parallel pipeline in
// ingest.go.
func (b *Builder) Build() *Graph {
	var ws []float64
	if b.weighted {
		ws = b.ws
	}
	return buildGraph(b.directed, append([]VertexID(nil), b.ids...), b.index.clone(), b.srcs, b.dsts, ws)
}

// buildGraph assembles a Graph that takes ownership of ids and index
// (index must resolve ids[v] to v) from the edge list srcs[i] -> dsts[i]
// over internal indexes; ws is nil for an unweighted graph.
func buildGraph(directed bool, ids []VertexID, index idTable, srcs, dsts []int32, ws []float64) *Graph {
	n := len(ids)
	g := &Graph{directed: directed, ids: ids, index: index, numEdges: int64(len(srcs))}
	g.outOff, g.outDst, g.outW = scatterCSR(n, srcs, dsts, ws, !directed)
	return g
}

// AsUndirected returns g itself when already undirected, or a new
// undirected graph over the same vertices with one undirected edge per
// directed edge of g. Connectivity algorithms use it to work on the
// underlying undirected graph. The undirected rows are produced by
// merging the already-sorted out-rows with a transient weighted
// transpose of them (symmetrize in ingest.go): O(n+m) with no Builder,
// no id-table operations, and nothing built on g.
func AsUndirected(g *Graph) *Graph {
	if !g.directed {
		return g
	}
	ng := &Graph{
		directed:  false,
		ids:       g.ids,
		index:     g.index,
		baseToCur: g.baseToCur,
		numEdges:  g.numEdges,
	}
	ng.outOff, ng.outDst, ng.outW = symmetrize(g)
	return ng
}

// Relabel returns a copy of g whose internal vertex v becomes perm[v].
// perm must be a permutation of [0, NumVertices). External identifiers
// follow their vertices. Relabel is used by partitioners to make each
// fragment a contiguous index range.
//
// The out-side is permuted directly (permuteCSR in ingest.go) and the
// id table is shared with g, composing permutations in baseToCur — an
// O(n+m) array pass that rebuilds nothing and resolves no id. A directed
// copy builds its own in-side on first use, like any directed graph.
func Relabel(g *Graph, perm []int32) (*Graph, error) {
	n := g.NumVertices()
	if err := checkPerm(perm, n); err != nil {
		return nil, err
	}
	ng := &Graph{
		directed: g.directed,
		ids:      make([]VertexID, n),
		index:    g.index,
		numEdges: g.numEdges,
	}
	for v, id := range g.ids {
		ng.ids[perm[v]] = id
	}
	ng.baseToCur = make([]int32, n)
	if g.baseToCur == nil {
		copy(ng.baseToCur, perm)
	} else {
		for i, v := range g.baseToCur {
			ng.baseToCur[i] = perm[v]
		}
	}
	ng.outOff, ng.outDst, ng.outW = permuteCSR(g.outOff, g.outDst, g.outW, perm)
	return ng, nil
}

// checkPerm validates that perm is a permutation of [0, n).
func checkPerm(perm []int32, n int) error {
	if len(perm) != n {
		return fmt.Errorf("graph: permutation length %d != %d vertices", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return fmt.Errorf("graph: invalid permutation")
		}
		seen[p] = true
	}
	return nil
}
