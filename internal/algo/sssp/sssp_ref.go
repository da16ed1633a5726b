package sssp

// The retained sequential SSSP kernel: Dijkstra's algorithm as PEval and
// the Ramalingam-Reps style incremental relaxation as IncEval, exactly
// as shipped before the parallel compute plane. It is the pinned
// reference of the differential tests, and RefJob is the only way to run
// it: the bucketed kernel must match it bit for bit — shortest-path
// distances are the unique fixpoint of min over exact per-path sums, so
// relaxation order cannot change the result.

import (
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// refProgram holds the per-fragment state: one distance per local slot
// (owned vertices then F.O copies), a priority queue reused across
// rounds, and a copy-slot bitmap that dedups border flushes without a
// per-round map.
type refProgram struct {
	f      *partition.Fragment
	g      *graph.Graph
	source graph.VertexID
	dist   []float64
	pq     distHeap
	// changedCopies records F.O copies improved in the current round, so
	// flushBorder ships only decreased values (the paper's "v.cid
	// decreased" message-segment analogue). copyChanged mirrors it as a
	// bitmap over copy slots so each copy is recorded at most once.
	changedCopies []int32
	copyChanged   []bool
	relaxed       int64 // edge relaxations attempted
}

// ScannedEdges reports the raw CSR edges read, one per edge relaxation
// attempted (core.ScanCounter): the work metric the delta tests compare
// kernels by.
func (p *refProgram) ScannedEdges() int64 { return p.relaxed }

func newRefProgram(f *partition.Fragment, source graph.VertexID) *refProgram {
	p := &refProgram{f: f, g: f.Graph(), source: source}
	p.dist = make([]float64, f.Slots())
	for i := range p.dist {
		p.dist[i] = Inf
	}
	p.copyChanged = make([]bool, len(f.Out))
	return p
}

// PEval runs Dijkstra from the source if it is owned; fragments not
// owning the source have nothing to do until messages arrive.
func (p *refProgram) PEval(ctx *core.Context[float64]) {
	s, ok := p.g.IndexOf(p.source)
	if !ok || !p.f.Owns(s) {
		return
	}
	p.relax(s, 0)
	p.dijkstra(ctx)
	p.flushBorder(ctx)
}

// IncEval resumes Dijkstra from the owned vertices whose distance the
// aggregated messages improved; the cost is bounded by the size of the
// affected area, the bounded-incremental property of [Ramalingam-Reps].
func (p *refProgram) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	for _, m := range msgs {
		slot := p.f.Slot(m.V)
		if slot < 0 {
			continue
		}
		if m.Val < p.dist[slot] {
			p.dist[slot] = m.Val
			if p.f.Owns(m.V) {
				p.pq.push(distItem{v: m.V, d: m.Val})
			}
		}
	}
	p.dijkstra(ctx)
	p.flushBorder(ctx)
}

// Get returns the current distance of owned vertex v.
func (p *refProgram) Get(v int32) float64 { return p.dist[p.f.Slot(v)] }

// relax lowers the distance of a local vertex; returns true if improved.
func (p *refProgram) relax(v int32, d float64) bool {
	slot := p.f.Slot(v)
	if slot < 0 || d >= p.dist[slot] {
		return false
	}
	p.dist[slot] = d
	owned := int32(p.f.NumOwned())
	if slot < owned {
		p.pq.push(distItem{v: v, d: d})
	} else if cs := slot - owned; !p.copyChanged[cs] {
		p.copyChanged[cs] = true
		p.changedCopies = append(p.changedCopies, v)
	}
	return true
}

func (p *refProgram) dijkstra(ctx *core.Context[float64]) {
	for p.pq.len() > 0 {
		it := p.pq.pop()
		slot := p.f.Slot(it.v)
		if it.d > p.dist[slot] {
			continue
		}
		ws := p.g.OutWeights(it.v)
		out := p.g.Out(it.v)
		ctx.AddWork(len(out))
		p.relaxed += int64(len(out))
		for i, u := range out {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			p.relax(u, it.d+w)
		}
	}
}

// flushBorder sends improved copy distances to their owners. The bitmap
// already dedups entries at relax time, so the flush is a single pass.
func (p *refProgram) flushBorder(ctx *core.Context[float64]) {
	owned := int32(p.f.NumOwned())
	for _, v := range p.changedCopies {
		slot := p.f.Slot(v)
		p.copyChanged[slot-owned] = false
		ctx.Send(v, p.dist[slot])
	}
	p.changedCopies = p.changedCopies[:0]
}

type distItem struct {
	v int32
	d float64
}

// distHeap is a monomorphic binary min-heap on distance. Unlike
// container/heap it never boxes items through interface{}, so pushes on
// the relaxation hot path do not allocate.
type distHeap struct{ items []distItem }

func (h *distHeap) len() int { return len(h.items) }

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
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.items[l].d < h.items[small].d {
			small = l
		}
		if r < last && h.items[r].d < h.items[small].d {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
