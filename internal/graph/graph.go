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
	"math"
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

	// ids maps internal index -> external id in 4 bytes: an id the index
	// holds in its dense arm is stored as itself (>= 0), any other
	// (negative, or past the dense range) as ^slot, slot being the
	// position of its key in the sparse table index.over. Relabel's
	// clone keeps every key in its slot, so the codes carry over as they
	// are.
	ids []int32

	// index maps external id -> internal index. Every graph that
	// permutes its vertices owns its table: Relabel composes the
	// permutation into a copy of its input's (idTable.clone), so a
	// lookup is one table read and no ancestor's table stays alive.
	index idTable

	outOff []uint32  // len n+1; checkArcs keeps the arc count below 2^32
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

// IDOf returns the external identifier of internal vertex v: one load
// of its 4-byte code, and for a sparse id one more of its key.
func (g *Graph) IDOf(v int32) VertexID {
	id := g.ids[v]
	if id >= 0 {
		return VertexID(id)
	}
	return g.index.over.keys[^id]
}

// IndexOf returns the internal index of the external identifier id and
// whether it exists.
func (g *Graph) IndexOf(id VertexID) (int32, bool) { return g.index.get(id) }

// OutDegree returns the out-degree of internal vertex v.
func (g *Graph) OutDegree(v int32) int { return int(g.outOff[v+1] - g.outOff[v]) }

// OutSpan returns the total number of stored out-entries of the vertex
// range [lo, hi): one subtraction on the CSR offsets, replacing
// per-vertex degree loops when partitioners size contiguous fragments.
func (g *Graph) OutSpan(lo, hi int32) int64 { return int64(g.outOff[hi] - g.outOff[lo]) }

// OutShards splits the vertex range into p contiguous shards of
// near-equal out-edge span, the balance edge-parallel sweeps over the
// graph (border computation, future analytics) need under skew.
func (g *Graph) OutShards(p int) []int32 { return vertexShardsByWork(g.outOff, p) }

// ResidentBytes reports the bytes the graph's tables hold: the ids (4
// per vertex; a sparse id's key lives in the index), the id index (4
// per dense slot, 12 per slot of the sparse table), the offsets
// (4(n+1)), the adjacency (4 per arc) and its weights (8 per arc), plus
// a directed graph's in-side once In or InDegree has built it (4(n+1) +
// 4 per arc). An undirected graph's in-side is its out-side and counts
// once. A table shared with another graph (AsUndirected's ids and id
// index) counts in both.
func (g *Graph) ResidentBytes() int64 {
	b := 4*int64(len(g.ids)) + g.index.bytes() +
		4*int64(len(g.outOff)) + 4*int64(len(g.outDst)) + 8*int64(len(g.outW))
	if in := g.in.Load(); g.directed && in != nil {
		b += 4*int64(len(in.off)) + 4*int64(len(in.adj))
	}
	return b
}

// maxArcs is the most arcs (stored CSR entries: an undirected edge that
// is not a self-loop is two) one side of a graph holds, the range of its
// 32-bit offsets.
const maxArcs = math.MaxUint32

// checkArcs is the one offset-width guard: every CSR build that sums
// offsets calls it with the arcs it is about to store and fails with its
// error — stripedOffsets (Build, the loader, the in-side's transpose)
// and symmetrize (AsUndirected, up to twice its input's arcs). Relabel
// permutes a graph's rows and keeps their count.
func checkArcs(arcs int64) error {
	if arcs > maxArcs {
		return fmt.Errorf("graph: %d arcs exceed the %d that 32-bit CSR offsets address", arcs, int64(maxArcs))
	}
	return nil
}

// adjacency is one unweighted CSR side.
type adjacency struct {
	off []uint32
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
			var err error
			if a.off, a.adj, _, err = transposeCSR(g.outOff, g.outDst, nil); err != nil {
				panic(err) // unreachable: the in-side has the out-side's arcs
			}
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

// code returns the 4-byte form Graph.ids stores for a present id: the
// id itself when the dense arm holds it, else ^ its slot in over.
func (t *idTable) code(id VertexID) int32 {
	if uint64(id) < uint64(len(t.dense)) && t.dense[id] >= 0 {
		return int32(id)
	}
	i, _ := t.over.find(id)
	return ^int32(i)
}

// codes returns code(id) for every id of ids, in order.
func (t *idTable) codes(ids []VertexID) []int32 {
	out := make([]int32, len(ids))
	for v, id := range ids {
		out[v] = t.code(id)
	}
	return out
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

// clone returns a copy that shares nothing with t and resolves every id
// of t to perm[v] for its index v in t (perm nil: to v). The dense part
// maps as an array; the sparse part keeps its keys in their slots and
// remaps only the values, so no id is re-inserted and no probe runs.
func (t *idTable) clone(perm []int32) idTable {
	c := idTable{dense: remapIndexes(t.dense, perm)}
	if t.over != nil {
		o := *t.over
		o.keys = append([]VertexID(nil), o.keys...)
		o.vals = remapIndexes(o.vals, perm)
		c.over = &o
	}
	return c
}

// remapIndexes returns a copy of vs with every index v >= 0 replaced by
// perm[v] (perm nil: kept); the absent marks (< 0) stay.
func remapIndexes(vs, perm []int32) []int32 {
	out := append([]int32(nil), vs...)
	if perm != nil {
		for i, v := range out {
			if v >= 0 {
				out[i] = perm[v]
			}
		}
	}
	return out
}

// bytes reports the table's resident size: 4 bytes per dense slot and 12
// per slot of the sparse table.
func (t *idTable) bytes() int64 {
	b := 4 * int64(len(t.dense))
	if t.over != nil {
		b += 12 * int64(len(t.over.keys))
	}
	return b
}

// Builder accumulates vertices and edges and produces an immutable Graph.
// Vertices are created implicitly by AddEdge; isolated vertices can be
// added with AddVertex. The builder may be reused after Build. It keeps
// its ids as 8-byte VertexIDs while it builds; Build converts them to
// the Graph's 4-byte codes.
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
// ingest.go. Build panics with checkArcs' error when the edges need more
// than 2^32−1 arcs; the edge-list loader returns that error instead.
func (b *Builder) Build() *Graph {
	var ws []float64
	if b.weighted {
		ws = b.ws
	}
	index := b.index.clone(nil)
	g, err := buildGraph(b.directed, index.codes(b.ids), index, b.srcs, b.dsts, ws)
	if err != nil {
		panic(err)
	}
	return g
}

// buildGraph assembles a Graph that takes ownership of ids and index
// (ids[v] must be the code of an id index resolves to v) from the edge
// list srcs[i] -> dsts[i] over internal indexes; ws is nil for an
// unweighted graph.
func buildGraph(directed bool, ids []int32, index idTable, srcs, dsts []int32, ws []float64) (*Graph, error) {
	n := len(ids)
	g := &Graph{directed: directed, ids: ids, index: index, numEdges: int64(len(srcs))}
	var err error
	if g.outOff, g.outDst, g.outW, err = scatterCSR(n, srcs, dsts, ws, !directed); err != nil {
		return nil, err
	}
	return g, nil
}

// AsUndirected returns g itself when already undirected, or a new
// undirected graph over the same vertices with one undirected edge per
// directed edge of g. Connectivity algorithms use it to work on the
// underlying undirected graph. The undirected rows are produced by
// merging the already-sorted out-rows with a transient weighted
// transpose of them (symmetrize in ingest.go): O(n+m) with no Builder,
// no id-table operations, and nothing built on g. The vertices keep their
// order, so the new graph shares g's ids and id index. AsUndirected
// panics with checkArcs' error when the undirected rows need more than
// 2^32−1 arcs (up to twice g's).
func AsUndirected(g *Graph) *Graph {
	if !g.directed {
		return g
	}
	ng := &Graph{
		directed: false,
		ids:      g.ids,
		index:    g.index,
		numEdges: g.numEdges,
	}
	var err error
	if ng.outOff, ng.outDst, ng.outW, err = symmetrize(g); err != nil {
		panic(err)
	}
	return ng
}

// Relabel returns a copy of g whose internal vertex v becomes perm[v].
// perm must be a permutation of [0, NumVertices). External identifiers
// follow their vertices. Relabel is used by partitioners to make each
// fragment a contiguous index range.
//
// The out-side is permuted directly (permuteCSR in ingest.go) and the
// id table is composed with perm into one table of the copy's own
// (idTable.clone): an O(n+m) array pass that re-inserts no id, after
// which nothing of g is referenced. The clone keeps every sparse key in
// its slot, so the id codes move with their vertices unchanged. A
// directed copy builds its own in-side on first use, like any directed
// graph.
func Relabel(g *Graph, perm []int32) (*Graph, error) {
	n := g.NumVertices()
	if err := checkPerm(perm, n); err != nil {
		return nil, err
	}
	ng := &Graph{
		directed: g.directed,
		ids:      make([]int32, n),
		index:    g.index.clone(perm),
		numEdges: g.numEdges,
	}
	for v, id := range g.ids {
		ng.ids[perm[v]] = id
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
