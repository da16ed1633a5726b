// The bucketed label-correcting SSSP kernel: a delta-stepping sweep
// over the bucketed frontier (par.Buckets) without the textbook's
// light/heavy edge phases.
//
// Owned vertices enter distance-range buckets of width delta. Buckets
// drain lowest first: every vertex taken from the current bucket relaxes
// all its out-edges, a relaxation that lands inside the current range
// re-fills the bucket, and the bucket is re-taken until it stays empty.
// The effect is near-Dijkstra processing order without a heap: a vertex
// is expanded when its distance is already within delta of final, instead of every time it improves, which on long
// shortest-path trees (road networks) removes most re-relaxations the
// Bellman-Ford order pays for, and costs nothing where there are none
// to remove (low-diameter graphs settle in a handful of buckets).
//
// Correctness does not depend on any of that ordering: distances relax
// through the same exact min whatever the order, every improvement
// re-stages its vertex, and the sweep only stops when all buckets are
// empty — so the kernel terminates at the same unique fixpoint bit for
// bit, as the differential tests pin across bucket widths.

package sssp

import (
	"math"

	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/par"
	"aap/internal/partition"
)

// deltaProgram is the per-fragment state of the bucketed kernel.
type deltaProgram struct {
	f      *partition.Fragment
	g      *graph.Graph
	source graph.VertexID

	dist        []float64            // per local slot
	bk          *par.Buckets         // owned slots staged by distance range
	copyChanged *partition.CopyMarks // F.O copies improved since last flush

	items []int32 // the slots one phase takes from the current bucket
	seeds []int32 // IncEval re-seed scratch

	rounds  int   // sweep phases executed
	buckets int   // nonempty buckets drained
	relaxed int64 // edge relaxations attempted
}

// newDeltaProgram builds the bucketed kernel for one fragment. A delta
// that is not a positive number (zero, negative, NaN) means the
// fragment's mean edge weight — one bucket then spans roughly one
// expected hop, the classic delta-stepping starting point (unweighted
// fragments get delta 1, i.e. BFS levels).
func newDeltaProgram(f *partition.Fragment, source graph.VertexID, delta float64) *deltaProgram {
	if !(delta > 0) {
		delta = f.MeanOutWeight()
	}
	p := &deltaProgram{f: f, g: f.Graph(), source: source}
	p.dist = make([]float64, f.Slots())
	for i := range p.dist {
		p.dist[i] = Inf
	}
	p.bk = par.NewBuckets(f.NumOwned(), delta)
	p.copyChanged = f.NewCopyMarks()
	return p
}

// KernelRounds reports the sweep phases executed so far.
func (p *deltaProgram) KernelRounds() int { return p.rounds }

// BucketsDrained reports the nonempty buckets drained so far.
func (p *deltaProgram) BucketsDrained() int { return p.buckets }

// ScannedEdges reports the raw CSR edges the sweeps read, one per
// out-edge of every expanded vertex and so one per edge relaxation
// attempted — core.ScanCounter.
func (p *deltaProgram) ScannedEdges() int64 { return p.relaxed }

// PEval seeds the source if owned and sweeps to the local fixpoint.
func (p *deltaProgram) PEval(ctx *core.Context[float64]) {
	s, ok := p.g.IndexOf(p.source)
	if !ok || !p.f.Owns(s) {
		return
	}
	p.dist[s-p.f.Lo] = 0
	p.bk.Restart(0)
	p.bk.Add(s-p.f.Lo, 0)
	p.sweep(ctx)
	p.flushBorder(ctx)
}

// IncEval lowers distances from the aggregated messages, re-aims the
// bucket window at the smallest improved distance, re-seeds the improved
// owned vertices, and resumes the sweep.
func (p *deltaProgram) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	p.seeds = p.seeds[:0]
	minPri := math.Inf(1)
	for _, m := range msgs {
		slot := p.f.Slot(m.V)
		if slot < 0 {
			continue
		}
		if m.Val < p.dist[slot] {
			p.dist[slot] = m.Val
			if p.f.Owns(m.V) {
				p.seeds = append(p.seeds, slot)
				if m.Val < minPri {
					minPri = m.Val
				}
			}
		}
	}
	if len(p.seeds) > 0 {
		// The structure is empty between rounds (sweep drains it), so
		// the window may legally rewind below the previous base.
		p.bk.Restart(minPri)
		for _, s := range p.seeds {
			p.bk.Add(s, p.dist[s])
		}
	}
	p.sweep(ctx)
	p.flushBorder(ctx)
}

// Get returns the current distance of owned vertex v.
func (p *deltaProgram) Get(v int32) float64 { return p.dist[p.f.Slot(v)] }

// sweep drains buckets to the local fixpoint: the current bucket is
// taken and expanded until no relaxation lands in it anymore, then the
// window advances to the next nonempty bucket.
func (p *deltaProgram) sweep(ctx *core.Context[float64]) {
	for {
		took := false
		for {
			p.items = p.bk.TakeCur(p.items)
			if len(p.items) == 0 {
				break
			}
			took = true
			p.rounds++
			ctx.AddWork(int(p.expand()))
		}
		if took {
			p.buckets++
		}
		if !p.bk.Advance() {
			return
		}
	}
}

// expand relaxes the out-edges of every slot of p.items with the exact
// min, staging improved owned slots into the bucket of their new
// distance and marking improved copies for the flush, and returns the
// edges it scanned. A slot is unstaged only as its expansion begins, so
// a vertex improved while it waits in p.items is expanded once, at the
// improved distance, not once now and once more on the re-take.
func (p *deltaProgram) expand() int64 {
	owned := int32(p.f.NumOwned())
	var n int64
	for _, s := range p.items {
		v := p.f.Lo + s
		p.bk.Unstage(s)
		d := p.dist[s]
		wts := p.g.OutWeights(v)
		out := p.g.Out(v)
		n += int64(len(out))
		for i, u := range out {
			nd := d + 1
			if wts != nil {
				nd = d + wts[i]
			}
			slot := p.f.Slot(u)
			if slot < 0 || !(nd < p.dist[slot]) {
				continue
			}
			p.dist[slot] = nd
			if slot < owned {
				p.bk.Add(slot, nd)
			} else {
				p.copyChanged.Add(u)
			}
		}
	}
	p.relaxed += n
	return n
}

// flushBorder ships the distances of the copies improved since the last
// flush, once each and in ascending vertex id, which is ascending copy
// slot: Drain yields only the changed copies, in that order, with their
// slots, and clears them.
func (p *deltaProgram) flushBorder(ctx *core.Context[float64]) {
	for s, v := range p.copyChanged.Drain() {
		ctx.Send(v, p.dist[s])
	}
}
