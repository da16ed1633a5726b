// Package cc is the PIE program for connected components (Figures 2-3 of
// the paper): PEval finds local components and links their members to a
// root carrying the minimum external vertex id as cid; IncEval merges
// components across fragments by propagating smaller cids with min as
// f_aggr. The input is treated as its underlying undirected graph.
//
// Two kernels implement the semantics: the retained sequential
// union-find (cc_ref.go) and the parallel hook-and-shortcut label
// propagation in this file — every slot carries a label, edge hooks
// lower the larger endpoint's label with an exact atomic min, and a
// pointer-jumping pass compresses label chains between hook rounds, so
// local components settle in O(log n) rounds instead of O(diameter).
// Both kernels converge to the canonical labeling (minimum member),
// which is why they are bit-identical under the differential tests.
package cc

import (
	"sync/atomic"

	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/par"
	"aap/internal/partition"
)

// Job builds the CC PIE job. Every vertex ends with the minimum external
// id of its connected component as its cid. Fragments big enough to
// shard run the parallel label-propagation kernel; small ones keep the
// sequential union-find. The choice reads the fragment's size and not
// the core count, so one partition runs the same algorithm on every
// machine.
func Job() core.Job[int64] {
	return JobShards(0)
}

// JobShards builds the CC job with a forced kernel shard count:
// shards >= 1 runs the parallel kernel with exactly that many shards
// (1 exercises it single-threaded), 0 picks automatically.
func JobShards(shards int) core.Job[int64] {
	return core.Job[int64]{
		Name: "cc",
		New: func(f *partition.Fragment) core.Program[int64] {
			if shards == 0 && par.BelowKernelGrain(f.Graph().OutSpan(f.Lo, f.Hi)) {
				return newRefProgram(f)
			}
			return newProgram(f, shards)
		},
		Aggregate: func(a, b int64) int64 { return min64(a, b) },
		Bytes:     func(int64) int { return 8 },
		EncodeVal: codec.AppendInt64,
		DecodeVal: (*codec.Reader).Int64,
	}
}

// RefJob builds the job over the retained union-find kernel only — the
// pinned oracle of the differential tests.
func RefJob() core.Job[int64] {
	return core.Job[int64]{
		Name:      "cc",
		New:       func(f *partition.Fragment) core.Program[int64] { return newRefProgram(f) },
		Aggregate: func(a, b int64) int64 { return min64(a, b) },
		Bytes:     func(int64) int { return 8 },
		EncodeVal: codec.AppendInt64,
		DecodeVal: (*codec.Reader).Int64,
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// program is the parallel kernel. After PEval converges, comp[s] is the
// minimum local slot of s's component (fully compressed: comp is
// constant and comp[comp[s]] == comp[s]), cid[r] carries the minimum
// external id of root r's component, and copiesOf links each root to
// its F.O copies for outward propagation.
type program struct {
	f      *partition.Fragment
	g      *graph.Graph
	shards int // forced kernel shard count; 0 = auto

	comp     []atomic.Int32 // slot -> component label (min slot)
	cid      []atomic.Int64 // root slot -> min external id
	copiesOf [][]int32

	// changed is the worklist of roots lowered by one IncEval: a bitmap
	// any shard stages into, drained in ascending order so the downstream
	// message order is canonical regardless of shard count.
	changed *par.Frontier

	ownedSlots []int32 // reusable [0, NumOwned) item list for chunking
	bounds     []int
	rounds     int
}

func newProgram(f *partition.Fragment, shards int) *program {
	n := f.Slots()
	p := &program{f: f, g: f.Graph(), shards: shards,
		comp:    make([]atomic.Int32, n),
		cid:     make([]atomic.Int64, n),
		changed: par.NewFrontier(n),
	}
	return p
}

// KernelRounds reports hook+shortcut rounds executed by PEval.
func (p *program) KernelRounds() int { return p.rounds }

// kernelShards resolves the shard count for `work` units this round.
func (p *program) kernelShards(ctx *core.Context[int64], work int64) int {
	if p.shards > 0 {
		return p.shards
	}
	return ctx.Shards(work)
}

// PEval finds local components by parallel hook-and-shortcut label
// propagation, assigns root cids, and ships the cids of F.O copies to
// their owners.
func (p *program) PEval(ctx *core.Context[int64]) {
	f := p.f
	n := f.Slots()
	owned := f.NumOwned()
	for s := range p.comp {
		p.comp[s].Store(int32(s))
	}

	// Owned-vertex item list chunked by local degree: the hook rounds
	// sweep each owned row's out- and in-edges.
	p.ownedSlots = p.ownedSlots[:0]
	for s := 0; s < owned; s++ {
		p.ownedSlots = append(p.ownedSlots, int32(s))
	}
	deg := func(s int32) int64 {
		v := f.Lo + s
		return int64(p.g.OutDegree(v)+p.g.InDegree(v)) + 1
	}
	var span int64
	for _, s := range p.ownedSlots {
		span += deg(s)
	}
	k := p.kernelShards(ctx, span)
	p.bounds = par.ChunksByWork(p.ownedSlots, k, span, p.bounds, deg)

	var work int64
	for {
		p.rounds++
		var hooked atomic.Bool
		par.Do(k, func(w int) {
			ch := false
			for _, s := range p.ownedSlots[p.bounds[w]:p.bounds[w+1]] {
				v := f.Lo + s
				for _, u := range p.g.Out(v) {
					ch = p.hook(s, u) || ch
				}
				for _, u := range p.g.In(v) {
					ch = p.hook(s, u) || ch
				}
			}
			if ch {
				hooked.Store(true)
			}
		})
		// Shortcut: compress label chains by pointer jumping. Each slot
		// is written by its range owner only; cross-range reads go
		// through the atomics.
		var jumped atomic.Bool
		par.Do(k, func(w int) {
			ch := false
			for s := w * n / k; s < (w+1)*n/k; s++ {
				for {
					c := p.comp[s].Load()
					cc := p.comp[c].Load()
					if cc >= c {
						break
					}
					p.comp[s].Store(cc)
					ch = true
				}
			}
			if ch {
				jumped.Store(true)
			}
		})
		work += span
		if !hooked.Load() && !jumped.Load() {
			break
		}
	}
	ctx.AddWork(int(work))

	// Root cids: the minimum external id over the component's members
	// (owned vertices and F.O copies alike), via the exact atomic min.
	for i := range p.cid {
		p.cid[i].Store(int64(1) << 62)
	}
	par.Do(k, func(w int) {
		for s := w * n / k; s < (w+1)*n/k; s++ {
			var v int32
			if s < owned {
				v = f.Lo + int32(s)
			} else {
				v = f.Out[s-owned]
			}
			par.MinInt64(&p.cid[p.comp[s].Load()], int64(p.g.IDOf(v)))
		}
	})

	// Link copies to their roots once and for all (sequential: the
	// copiesOf list order is the deterministic f.Out order).
	p.copiesOf = make([][]int32, n)
	for _, v := range f.Out {
		r := p.comp[f.Slot(v)].Load()
		p.copiesOf[r] = append(p.copiesOf[r], v)
	}
	p.sendCopies(ctx, k)
}

// hook lowers the label of the larger endpoint of edge (owned slot s,
// neighbor u) to the smaller endpoint's label; copies hook too, since
// sequential PEval unions across every local edge of an owned row.
func (p *program) hook(s int32, u int32) bool {
	us := p.f.Slot(u)
	if us < 0 {
		return false
	}
	a := p.comp[s].Load()
	b := p.comp[us].Load()
	switch {
	case a < b:
		return par.MinInt32(&p.comp[us], a)
	case b < a:
		return par.MinInt32(&p.comp[s], b)
	}
	return false
}

// sendCopies ships every F.O copy's current root cid, staged across
// shards in f.Out order.
func (p *program) sendCopies(ctx *core.Context[int64], k int) {
	nOut := len(p.f.Out)
	if nOut == 0 {
		return
	}
	if k <= 1 {
		for _, v := range p.f.Out {
			ctx.Send(v, p.cid[p.comp[p.f.Slot(v)].Load()].Load())
		}
		return
	}
	stages := ctx.Stages(k)
	par.Do(k, func(w int) {
		st := stages[w]
		for i := w * nOut / k; i < (w+1)*nOut/k; i++ {
			v := p.f.Out[i]
			st.Send(v, p.cid[p.comp[p.f.Slot(v)].Load()].Load())
		}
	})
	ctx.MergeStages()
}

// IncEval lowers root cids from the aggregated messages in parallel and
// propagates every decrease to the owners of the copies linked to the
// changed roots — the bounded incremental step of Figure 3.
func (p *program) IncEval(msgs []core.VMsg[int64], ctx *core.Context[int64]) {
	k := p.kernelShards(ctx, int64(len(msgs)))
	par.Do(k, func(w int) {
		lo, hi := w*len(msgs)/k, (w+1)*len(msgs)/k
		for _, m := range msgs[lo:hi] {
			slot := p.f.Slot(m.V)
			if slot < 0 {
				continue
			}
			r := p.comp[slot].Load()
			if par.MinInt64(&p.cid[r], m.Val) {
				p.changed.Add(r)
			}
		}
	})
	ctx.AddWork(len(msgs))

	// Drain in ascending order so the downstream message order is
	// canonical regardless of shard count.
	roots := p.changed.Advance()
	if len(roots) == 0 {
		return
	}

	copies := func(r int32) int64 { return int64(len(p.copiesOf[r])) + 1 }
	var span int64
	for _, r := range roots {
		span += copies(r)
	}
	kk := p.kernelShards(ctx, span)
	p.bounds = par.ChunksByWork(roots, kk, span, p.bounds, copies)
	if kk <= 1 {
		for _, r := range roots {
			ctx.AddWork(len(p.copiesOf[r]))
			for _, v := range p.copiesOf[r] {
				ctx.Send(v, p.cid[r].Load())
			}
		}
		return
	}
	stages := ctx.Stages(kk)
	par.Do(kk, func(w int) {
		st := stages[w]
		for _, r := range roots[p.bounds[w]:p.bounds[w+1]] {
			st.AddWork(len(p.copiesOf[r]))
			val := p.cid[r].Load()
			for _, v := range p.copiesOf[r] {
				st.Send(v, val)
			}
		}
	})
	ctx.MergeStages()
}

// Get returns the cid of owned vertex v.
func (p *program) Get(v int32) int64 {
	return p.cid[p.comp[p.f.Slot(v)].Load()].Load()
}
