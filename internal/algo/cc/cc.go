// Package cc is the PIE program for connected components (Figures 2-3 of
// the paper): PEval finds local components and links their members to a
// root carrying the minimum external vertex id as cid; IncEval merges
// components across fragments by propagating smaller cids with min as
// f_aggr. The input is treated as its underlying undirected graph.
//
// The kernel is a union-find forest over local slots built in PEval,
// with root cids lowered incrementally. It converges to the canonical
// labeling (minimum member), which the tests compare against ref.CC.
package cc

import (
	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// Job builds the CC PIE job. Every vertex ends with the minimum external
// id of its connected component as its cid.
func Job() core.Job[int64] {
	return core.Job[int64]{
		Name:      "cc",
		New:       func(f *partition.Fragment) core.Program[int64] { return newProgram(f) },
		Aggregate: func(a, b int64) int64 { return min(a, b) },
		Bytes:     func(int64) int { return 8 },
		EncodeVal: codec.AppendInt64,
		DecodeVal: (*codec.Reader).Int64,
	}
}

// program keeps the local component forest: a union-find over local
// slots whose roots carry the component's cid (the paper's root nodes
// v_c), plus the precomputed list of F.O copies per root used to
// propagate cid decreases outward.
type program struct {
	f *partition.Fragment
	g *graph.Graph

	parent []int32 // union-find over local slots
	cid    []int64 // per root: minimum external id seen

	// copiesOf lists, for each root slot, the F.O copies linked to it;
	// the local forest is fixed after PEval (no new local edges appear),
	// so the lists are computed once.
	copiesOf [][]int32

	// changedRoots/rootChanged are the reusable scratch IncEval uses to
	// dedup lowered roots, replacing a per-round map.
	changedRoots []int32
	rootChanged  []bool
}

func newProgram(f *partition.Fragment) *program {
	n := f.Slots()
	p := &program{f: f, g: f.Graph(),
		parent:      make([]int32, n),
		cid:         make([]int64, n),
		rootChanged: make([]bool, n),
	}
	for i := range p.parent {
		p.parent[i] = int32(i)
	}
	return p
}

func (p *program) find(s int32) int32 {
	for p.parent[s] != s {
		p.parent[s] = p.parent[p.parent[s]]
		s = p.parent[s]
	}
	return s
}

func (p *program) union(a, b int32) {
	ra, rb := p.find(a), p.find(b)
	if ra != rb {
		p.parent[ra] = rb
	}
}

// PEval computes local components over the edges of owned vertices (both
// directions, underlying undirected graph), assigns each root the minimum
// external id, and ships the cids of F.O copies to their owners.
func (p *program) PEval(ctx *core.Context[int64]) {
	f := p.f
	for v := f.Lo; v < f.Hi; v++ {
		vs := f.Slot(v)
		for _, u := range p.g.Out(v) {
			if us := f.Slot(u); us >= 0 {
				p.union(vs, us)
			}
		}
		for _, u := range p.g.In(v) {
			if us := f.Slot(u); us >= 0 {
				p.union(vs, us)
			}
		}
		ctx.AddWork(p.g.OutDegree(v) + p.g.InDegree(v))
	}
	// Root cids: the minimum external id over the component's members.
	for i := range p.cid {
		p.cid[i] = int64(1) << 62
	}
	assign := func(v int32) {
		s := f.Slot(v)
		r := p.find(s)
		if id := int64(p.g.IDOf(v)); id < p.cid[r] {
			p.cid[r] = id
		}
	}
	for v := f.Lo; v < f.Hi; v++ {
		assign(v)
	}
	for _, v := range f.Copies() {
		assign(v)
	}
	// Link copies to their roots once and for all.
	p.copiesOf = make([][]int32, f.Slots())
	for s, v := range f.Copies() {
		r := p.find(s)
		p.copiesOf[r] = append(p.copiesOf[r], v)
	}
	for s, v := range f.Copies() {
		ctx.Send(v, p.cid[p.find(s)])
	}
}

// IncEval lowers root cids from the aggregated messages and propagates
// every decrease to the owners of the copies linked to the changed roots
// — the bounded incremental step of Figure 3.
func (p *program) IncEval(msgs []core.VMsg[int64], ctx *core.Context[int64]) {
	for _, m := range msgs {
		slot := p.f.Slot(m.V)
		if slot < 0 {
			continue
		}
		r := p.find(slot)
		if m.Val < p.cid[r] {
			p.cid[r] = m.Val
			if !p.rootChanged[r] {
				p.rootChanged[r] = true
				p.changedRoots = append(p.changedRoots, r)
			}
		}
	}
	ctx.AddWork(len(msgs))
	for _, r := range p.changedRoots {
		p.rootChanged[r] = false
		copies := p.copiesOf[r]
		ctx.AddWork(len(copies))
		for _, v := range copies {
			ctx.Send(v, p.cid[r])
		}
	}
	p.changedRoots = p.changedRoots[:0]
}

// Get returns the cid of owned vertex v.
func (p *program) Get(v int32) int64 { return p.cid[p.find(p.f.Slot(v))] }
