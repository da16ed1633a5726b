// Package partition implements the edge-cut graph partitioning layer of
// the GRAPE/AAP model (Section 2 of the paper): strategies that assign
// vertices to fragments, the renumbering that makes each fragment a
// contiguous index range of the global graph, and the border sets of the
// paper's notation (F.I, F.O, F.I', F.O') with the routing index I_i that
// maps a border node to the fragments holding a copy of it.
//
// Of the four sets only F.O, the update parameters, is stored, as a sorted
// slice and a rank bitmap (slots.go). F.O' and F.I' are read by no query
// and are not kept. F.I and I_i are F.O read the other way: F.I of
// fragment i is the union of every F.O_j restricted to i's owned range
// (Fragment.InBorder), and I_i of vertex v is the fragments whose bitmap
// has v (Fragment.OutSlot(v) >= 0, walked in ascending id).
package partition

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"aap/internal/graph"
)

// Strategy assigns each vertex of a graph to one of m fragments.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Assign returns, for every internal vertex of g, a fragment id in
	// [0, m).
	Assign(g *graph.Graph, m int) []int32
}

// Fragment is the per-worker view of a partitioned graph: the contiguous
// range of owned vertices plus the out-border copy set.
//
// Border sets follow the paper's notation for edge-cut partitions:
//
//	F.I  — owned vertices with an incoming edge from another fragment
//	       (derived on demand by InBorder)
//	F.O' — owned vertices with an outgoing edge to another fragment
//	       (not kept)
//	F.O  — foreign vertices with an incoming edge from this fragment
//	       (this fragment holds a copy of them; they form the default
//	       candidate set C_i): Out, the one stored set
//	F.I' — foreign vertices with an outgoing edge into this fragment
//	       (not kept)
type Fragment struct {
	ID int
	// Lo, Hi delimit the owned vertex range [Lo, Hi) in the renumbered
	// global graph.
	Lo, Hi int32

	// Out is F.O: global vertex indexes, sorted ascending.
	Out []int32

	// Owned vertices map to slots arithmetically (v - Lo); the F.O copy
	// set resolves through copySlots, a rank-indexed bitmap over the
	// global vertex range (slots.go).
	copySlots []rankWord

	// meanWeight is MeanOutWeight's answer, derived from the immutable
	// graph on first use so that Build pays nothing for it.
	meanOnce   sync.Once
	meanWeight float64

	p *Partitioned
}

// NumOwned returns the number of vertices owned by the fragment.
func (f *Fragment) NumOwned() int { return int(f.Hi - f.Lo) }

// Owns reports whether global vertex v is owned by the fragment.
func (f *Fragment) Owns(v int32) bool { return v >= f.Lo && v < f.Hi }

// OutSlot returns the dense slot of out-border copy v in [0, len(Out)),
// or -1 if v is not in F.O.
func (f *Fragment) OutSlot(v int32) int32 {
	if f.Owns(v) {
		return -1
	}
	if s := f.Slot(v); s >= 0 {
		return s - int32(f.NumOwned())
	}
	return -1
}

// Slots returns the number of local state slots of the fragment: owned
// vertices followed by the F.O copies. Programs size their per-vertex
// state by Slots rather than by the global vertex count.
func (f *Fragment) Slots() int { return f.NumOwned() + len(f.Out) }

// Slot maps global vertex v to its dense local slot: owned vertices map
// to [0, NumOwned) and F.O copies to [NumOwned, Slots). It returns -1
// when v is neither owned nor a copy, including ids outside the graph's
// vertex range. Owned vertices resolve with two compares, copies with
// one load of v's rank word and a popcount of the F.O members below v
// in it.
func (f *Fragment) Slot(v int32) int32 {
	if v >= f.Lo && v < f.Hi {
		return v - f.Lo
	}
	w := uint(v) >> 6 // a negative id lands far past the table
	if w >= uint(len(f.copySlots)) {
		return -1
	}
	e := f.copySlots[w]
	bit := uint64(1) << (uint(v) & 63)
	if e.bits&bit == 0 {
		return -1
	}
	return e.base + int32(bits.OnesCount64(e.bits&(bit-1)))
}

// Graph returns the renumbered global graph the fragment views.
func (f *Fragment) Graph() *graph.Graph { return f.p.G }

// Partitioned returns the partition the fragment belongs to.
func (f *Fragment) Partitioned() *Partitioned { return f.p }

// MeanOutWeight returns the mean weight of the fragment's owned
// out-edges: 1 on an unweighted graph (its edges count as 1) or a
// fragment without edges. It is a property of the immutable fragment,
// so it is computed once, on first use, and is safe for concurrent
// callers.
func (f *Fragment) MeanOutWeight() float64 {
	f.meanOnce.Do(func() {
		f.meanWeight = 1
		g := f.p.G
		n := g.OutSpan(f.Lo, f.Hi)
		if !g.Weighted() || n == 0 {
			return
		}
		var sum float64
		for v := f.Lo; v < f.Hi; v++ {
			for _, w := range g.OutWeights(v) {
				sum += w
			}
		}
		if sum > 0 {
			f.meanWeight = sum / float64(n)
		}
	})
	return f.meanWeight
}

// Partitioned is a graph partitioned into m fragments over a renumbered
// global graph. Fragment i owns the contiguous vertex range
// [Ranges[i], Ranges[i+1]).
//
// A Partitioned holds only what a query reads: the graph, the ranges
// with a coarse index over them (Owner), and, per fragment, F.O with its
// rank bitmap. It keeps no per-vertex table of its own: the owner of v is
// read off Ranges. The routing index I_i is not stored: the holders of v
// are the fragments whose F.O bitmap has v (Fragment.OutSlot), in
// ascending id, and F.I is derived from the other fragments' F.O
// (Fragment.InBorder).
//
// Immutability contract: after Build returns, a Partitioned — the
// graph, ranges, owner index, per-fragment slot tables and border
// sets — is read-only. This is what lets core.Session share one
// Partitioned across concurrently executing queries with no locking:
// per-query state lives entirely in the engine's vertex arenas, never
// here. (Fragment.MeanOutWeight memoizes a value derived from that
// read-only state behind a sync.Once, and so does a directed graph's
// in-side, built by its first In; both keep the contract.) Anything that wants different fragments (Relabel, a different
// m) builds a new Partitioned.
type Partitioned struct {
	G      *graph.Graph
	M      int
	Ranges []int32 // length M+1
	Frags  []*Fragment

	// coarse is the owner index: bucket b covers the vertices whose
	// index >> shift is b (ownerBucket).
	coarse []ownerBucket
	shift  uint  // < 32; Owner masks it so the shift compiles to one instruction
	last   int32 // n-1: Owner clamps ids into [0, n)

	// sizes[i] is ||F_i|| (owned vertices + owned edges), computed once
	// in Build so Skew never rescans degrees.
	sizes []float64

	strategy string
}

// Strategy returns the name of the strategy that produced the partition.
func (p *Partitioned) Strategy() string { return p.strategy }

// Owner returns the fragment id owning global vertex v. An id outside
// [0, n) gets the owner of the nearest vertex, 0 or n-1; that fragment
// has no slot for it, so a Send of it fails the run naming the vertex,
// as any message its receiver has no slot for does. Owner reads v's
// bucket of the coarse owner index and compares v with the one fragment
// end the bucket holds: O(1), from memory that stays in L1. Only in a
// bucket that meets the ends of several non-empty fragments does it
// walk on along Ranges.
func (p *Partitioned) Owner(v int32) int {
	v = min(max(v, 0), p.last)
	e := p.coarse[min(uint32(v)>>(p.shift&31), uint32(len(p.coarse)-1))]
	j := e.lo + (e.hi-e.lo)&((e.end-1-v)>>31) // e.hi when v >= e.end
	for v >= p.Ranges[j+1] {
		j++
	}
	return int(j)
}

// ownerSearch is Owner by binary search over Ranges, the reference the
// coarse index is built from and tested against (0 on an empty graph).
func (p *Partitioned) ownerSearch(v int32) int32 {
	v = min(max(v, 0), p.last)
	return int32(min(sort.Search(p.M, func(i int) bool { return p.Ranges[i+1] > v }), p.M-1))
}

// ownerBucket is one bucket of the coarse owner index: lo owns the
// bucket's first vertex, end is where lo's range ends, and hi owns the
// first vertex at or past end (lo when there is none).
type ownerBucket struct{ end, lo, hi int32 }

// maxOwnerBuckets bounds the coarse owner index at 12 KiB.
const maxOwnerBuckets = 1024

// indexOwners builds the coarse owner index: the widest power-of-two
// bucket no wider than the smallest non-empty fragment, so that every
// bucket meets at most one non-empty fragment's end, unless that takes
// more than maxOwnerBuckets buckets (one bucket for an empty graph).
func (p *Partitioned) indexOwners() {
	n := p.Ranges[p.M]
	smallest := n
	for i := 0; i < p.M; i++ {
		if s := p.Ranges[i+1] - p.Ranges[i]; s > 0 && s < smallest {
			smallest = s
		}
	}
	shift := uint(max(bits.Len32(uint32(smallest))-1, 0))
	for n>>shift >= maxOwnerBuckets {
		shift++
	}
	p.shift, p.last = shift, n-1
	p.coarse = make([]ownerBucket, max((int64(n)+1<<shift-1)>>shift, 1))
	for b := range p.coarse {
		lo := p.ownerSearch(int32(b) << shift)
		end := p.Ranges[lo+1]
		p.coarse[b] = ownerBucket{end, lo, p.ownerSearch(end)}
	}
}

// Routing lookups are O(1): the owner is one read of the coarse index
// and one compare, and per-fragment slots are the arithmetic owned range
// plus an n/4-byte rank bitmap for the copies (slots.go).

// Skew returns ||F_max|| / ||F_median||, the imbalance measure r used in
// Exp-4 of the paper, with fragment size measured as owned vertices plus
// owned edges. Fragment sizes are precomputed in Build (each is one CSR
// offset subtraction), so Skew costs O(m log m) in fragments, not O(n).
func (p *Partitioned) Skew() float64 {
	sizes := append([]float64(nil), p.sizes...)
	sort.Float64s(sizes)
	med := sizes[p.M/2]
	if med == 0 {
		return 1
	}
	return sizes[p.M-1] / med
}

// Build partitions g into m fragments using the strategy: it assigns
// vertices, relabels the graph so each fragment owns a contiguous range,
// and computes each fragment's F.O and slot table.
func Build(g *graph.Graph, m int, s Strategy) (*Partitioned, error) {
	if m < 1 {
		return nil, fmt.Errorf("partition: need at least 1 fragment, got %d", m)
	}
	n := g.NumVertices()
	assign := s.Assign(g, m)
	if len(assign) != n {
		return nil, fmt.Errorf("partition: strategy %s returned %d assignments for %d vertices", s.Name(), len(assign), n)
	}
	counts := make([]int32, m+1)
	for _, fi := range assign {
		if fi < 0 || int(fi) >= m {
			return nil, fmt.Errorf("partition: strategy %s assigned invalid fragment %d", s.Name(), fi)
		}
		counts[fi+1]++
	}
	for i := 0; i < m; i++ {
		counts[i+1] += counts[i]
	}
	ranges := append([]int32(nil), counts...)

	// perm maps old index -> new index; fragment i occupies
	// [ranges[i], ranges[i+1]).
	perm := make([]int32, n)
	cursor := make([]int32, m)
	copy(cursor, ranges[:m])
	for v := 0; v < n; v++ {
		fi := assign[v]
		perm[v] = cursor[fi]
		cursor[fi]++
	}
	rg, err := graph.Relabel(g, perm)
	if err != nil {
		return nil, err
	}

	p := &Partitioned{G: rg, M: m, Ranges: ranges, strategy: s.Name()}
	p.indexOwners()
	p.sizes = make([]float64, m)
	for i := 0; i < m; i++ {
		p.sizes[i] = float64(int64(ranges[i+1]-ranges[i]) + rg.OutSpan(ranges[i], ranges[i+1]))
	}
	p.Frags = make([]*Fragment, m)
	for i := 0; i < m; i++ {
		p.Frags[i] = &Fragment{ID: i, Lo: ranges[i], Hi: ranges[i+1], p: p}
	}
	p.computeBorders()
	return p, nil
}
