// Package ref holds single-threaded reference implementations of the
// paper's four graph computations. They are the correctness oracles for
// the parallel engines and the "single machine" baseline row of Exp-1.
package ref

import (
	"math"

	"aap/internal/graph"
)

// Inf is the distance of unreachable vertices.
var Inf = math.Inf(1)

// SSSP computes single-source shortest path distances from the vertex
// with external id source using Dijkstra's algorithm with a binary heap.
// Unreachable vertices get +Inf. Edge weights must be positive.
func SSSP(g *graph.Graph, source graph.VertexID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Inf
	}
	s, ok := g.IndexOf(source)
	if !ok {
		return dist
	}
	dist[s] = 0
	pq := distHeap{items: []distItem{{v: s, d: 0}}}
	for len(pq.items) > 0 {
		it := pq.pop()
		if it.d > dist[it.v] {
			continue
		}
		ws := g.OutWeights(it.v)
		for i, u := range g.Out(it.v) {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			if nd := it.d + w; nd < dist[u] {
				dist[u] = nd
				pq.push(distItem{v: u, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int32
	d float64
}

// distHeap is a monomorphic binary min-heap on distance. Unlike
// container/heap it never boxes items through interface{}, so pushes on
// the relaxation hot path do not allocate.
type distHeap struct{ items []distItem }

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].d <= h.items[i].d {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *distHeap) pop() distItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.items[l].d < h.items[small].d {
			small = l
		}
		if r < last && h.items[r].d < h.items[small].d {
			small = r
		}
		if small == i {
			return top
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
}

// CC computes connected components of the underlying undirected graph;
// the result assigns every vertex the minimum external id in its
// component, the cid convention of the paper's Example 2.
func CC(g *graph.Graph) []int64 {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for v := int32(0); v < int32(n); v++ {
		for _, u := range g.Out(v) {
			union(v, u)
		}
		for _, u := range g.In(v) {
			union(v, u)
		}
	}
	cid := make([]int64, n)
	minID := make(map[int32]int64)
	for v := int32(0); v < int32(n); v++ {
		r := find(v)
		id := int64(g.IDOf(v))
		if cur, ok := minID[r]; !ok || id < cur {
			minID[r] = id
		}
	}
	for v := int32(0); v < int32(n); v++ {
		cid[v] = minID[find(v)]
	}
	return cid
}

// PageRank runs synchronous power iteration with damping factor d using
// the paper's formulation P_v = d * Σ P_u/N_u + (1-d) (no dangling-mass
// redistribution), until the L1 change drops below eps or maxIter rounds.
func PageRank(g *graph.Graph, d, eps float64, maxIter int) []float64 {
	n := g.NumVertices()
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = 1 - d
	}
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			next[i] = 1 - d
		}
		for v := int32(0); v < int32(n); v++ {
			deg := g.OutDegree(v)
			if deg == 0 {
				continue
			}
			share := d * cur[v] / float64(deg)
			for _, u := range g.Out(v) {
				next[u] += share
			}
		}
		var delta float64
		for i := range cur {
			delta += math.Abs(next[i] - cur[i])
		}
		cur, next = next, cur
		if delta < eps {
			break
		}
	}
	return cur
}

// SGDConfig parameterizes the reference matrix-factorization trainer.
type SGDConfig struct {
	Rank      int
	LearnRate float64
	Lambda    float64
	Epochs    int
	Seed      int64
}

// CF trains latent factors on the training edges of a bipartite rating
// graph with plain (single-threaded) stochastic gradient descent and
// returns user and product factors plus the final training RMSE.
func CF(users, products int, train []graph.Edge, cfg SGDConfig) (uf, pf [][]float64, rmse float64) {
	uf = DeterministicFactors(users, cfg.Rank, cfg.Seed)
	pf = DeterministicFactors(products, cfg.Rank, cfg.Seed+1)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var se float64
		for _, e := range train {
			u := int(e.Src)
			p := int(e.Dst) - users
			pred := Dot(uf[u], pf[p])
			err := e.Weight - pred
			se += err * err
			for k := 0; k < cfg.Rank; k++ {
				du := cfg.LearnRate * (err*pf[p][k] - cfg.Lambda*uf[u][k])
				dp := cfg.LearnRate * (err*uf[u][k] - cfg.Lambda*pf[p][k])
				uf[u][k] += du
				pf[p][k] += dp
			}
		}
		rmse = math.Sqrt(se / float64(len(train)))
	}
	return uf, pf, rmse
}

// RMSE evaluates factor matrices on a set of rating edges.
func RMSE(users int, uf, pf [][]float64, edges []graph.Edge) float64 {
	if len(edges) == 0 {
		return 0
	}
	var se float64
	for _, e := range edges {
		u := int(e.Src)
		p := int(e.Dst) - users
		err := e.Weight - Dot(uf[u], pf[p])
		se += err * err
	}
	return math.Sqrt(se / float64(len(edges)))
}

// DeterministicFactors produces a reproducible pseudo-random factor
// matrix: entry (i, k) depends only on (i, k, seed). Both the reference
// and the distributed CF initialize from it, so their starting points
// coincide regardless of partitioning.
func DeterministicFactors(n, rank int, seed int64) [][]float64 {
	f := make([][]float64, n)
	scale := 1 / math.Sqrt(float64(rank))
	for i := range f {
		row := make([]float64, rank)
		for k := range row {
			row[k] = hashUnit(int64(i), int64(k), seed) * scale
		}
		f[i] = row
	}
	return f
}

// hashUnit maps (i, k, seed) to a deterministic value in [-0.5, 0.5).
func hashUnit(i, k, seed int64) float64 {
	x := uint64(i*1_000_003 + k*7919 + seed*104_729 + 0x9E3779B9)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return float64(x%1_000_000)/1_000_000 - 0.5
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
