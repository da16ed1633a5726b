// The bucketed label-correcting SSSP kernel: a delta-stepping sweep
// over the bucketed frontier (par.Buckets) without the textbook's
// light/heavy edge phases.
//
// Owned vertices enter distance-range buckets of width delta. Buckets
// drain lowest first: every vertex taken from the current bucket relaxes
// all its out-edges, a relaxation that lands inside the current range
// re-fills the bucket, and the bucket is re-taken until it stays empty.
// The effect is near-Dijkstra processing order at full shard
// parallelism: a vertex is expanded when its distance is already within
// delta of final, instead of every time it improves, which on long
// shortest-path trees (road networks) removes most re-relaxations the
// Bellman-Ford order pays for, and costs nothing where there are none
// to remove (low-diameter graphs settle in a handful of buckets).
//
// Correctness does not depend on any of that ordering: distances relax
// through the same exact min whatever the order, every improvement
// re-stages its vertex, and the sweep only stops when all buckets are
// empty — so the kernel terminates at the same unique fixpoint bit for
// bit, as the differential tests pin across bucket widths and shard
// counts.
//
// The distances are plain float64 bits under par's rule for Frontier and
// Buckets: atomic inside a phase of two or more shards, plain everywhere
// else (a one-shard phase is most of a multi-fragment run, KernelShare),
// with par.Do's barrier between the two.

package sssp

import (
	"math"
	"sync/atomic"

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
	shards int // forced kernel shard count; 0 = auto per phase

	dist        []uint64      // float64 bits per local slot; atomic only in a sharded phase
	bk          *par.Buckets  // owned slots staged by distance range
	copyChanged *par.Frontier // F.O copies improved since last flush

	// One phase's input and per-shard output, read by expand: the taken
	// slots, their chunk boundaries, and the edges each shard scanned.
	items   []int32
	bounds  []int
	scanned []int64
	expand  func(w int) // p.expandShard, bound once so a phase allocates nothing

	// One flush's copies and send sides, read by flushShard.
	changed []int32
	stages  []*core.Stage[float64]
	flush   func(w int) // p.flushShard, bound once like expand

	seeds []int32 // IncEval re-seed scratch

	rounds  int   // parallel sweep phases executed
	buckets int   // nonempty buckets drained
	relaxed int64 // edge relaxations attempted
}

// newDeltaProgram builds the bucketed kernel for one fragment. A delta
// that is not a positive number (zero, negative, NaN) means the
// fragment's mean edge weight — one bucket then spans roughly one
// expected hop, the classic delta-stepping starting point (unweighted
// fragments get delta 1, i.e. BFS levels).
func newDeltaProgram(f *partition.Fragment, source graph.VertexID, shards int, delta float64) *deltaProgram {
	if !(delta > 0) {
		delta = f.MeanOutWeight()
	}
	p := &deltaProgram{f: f, g: f.Graph(), source: source, shards: shards}
	p.dist = make([]uint64, f.Slots())
	inf := math.Float64bits(Inf)
	for i := range p.dist {
		p.dist[i] = inf
	}
	p.bk = par.NewBuckets(f.NumOwned(), max(shards, 1), delta)
	p.copyChanged = par.NewFrontier(len(f.Out))
	p.expand = p.expandShard
	p.flush = p.flushShard
	return p
}

// KernelRounds reports the parallel sweep phases executed so far.
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
	p.dist[s-p.f.Lo] = math.Float64bits(0)
	p.bk.Restart(0)
	p.bk.Add(0, s-p.f.Lo, 0)
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
		if m.Val < math.Float64frombits(p.dist[slot]) {
			p.dist[slot] = math.Float64bits(m.Val)
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
			p.bk.Add(0, s, math.Float64frombits(p.dist[s]))
		}
	}
	p.sweep(ctx)
	p.flushBorder(ctx)
}

// Get returns the current distance of owned vertex v.
func (p *deltaProgram) Get(v int32) float64 {
	return math.Float64frombits(p.dist[p.f.Slot(v)])
}

// kernelShards resolves the shard count for `work` units this phase.
func (p *deltaProgram) kernelShards(ctx *core.Context[float64], work int64) int {
	if p.shards > 0 {
		return p.shards
	}
	return ctx.Shards(work)
}

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
			p.relaxPhase(ctx)
		}
		if took {
			p.buckets++
		}
		if !p.bk.Advance() {
			return
		}
	}
}

// relaxPhase expands every out-edge of p.items in parallel across kernel
// shards balanced by degree; the buckets and expandShard both learn k.
func (p *deltaProgram) relaxPhase(ctx *core.Context[float64]) {
	p.rounds++
	deg := func(s int32) int64 { return int64(p.g.OutDegree(p.f.Lo+s)) + 1 }
	var span int64
	for _, s := range p.items {
		span += deg(s)
	}
	k := p.kernelShards(ctx, span)
	p.bk.EnsureShards(k)
	p.bounds = par.ChunksByWork(p.items, k, span, p.bounds, deg)
	if cap(p.scanned) < k {
		p.scanned = make([]int64, k)
	}
	p.scanned = p.scanned[:k]
	par.Do(k, p.expand)
	var total int64
	for _, n := range p.scanned {
		total += n
	}
	p.relaxed += total
	ctx.AddWork(int(total))
}

// expandShard is shard w of a phase: it relaxes the out-edges of its
// chunk of p.items with the exact min, staging improved owned slots into
// the bucket of their new distance and marking improved copies for the
// flush. A slot is unstaged only as its expansion begins, so a vertex
// improved while it waits in p.items is expanded once, at the improved
// distance, not once now and once more on the re-take. In a phase of
// several shards the min is atomic, and a racing further improvement can
// leave a candidate stale-high by the time it is staged; the loser's
// staging then fails the bucket CAS-min (or goes stale) and the winner's
// bucket is the one drained — expansion always reads the then-current
// distance. A one-shard phase has nobody to race and stores plainly.
func (p *deltaProgram) expandShard(w int) {
	owned := int32(p.f.NumOwned())
	shared := len(p.scanned) > 1 // k, as EnsureShards saw it
	var n int64
	for _, s := range p.items[p.bounds[w]:p.bounds[w+1]] {
		v := p.f.Lo + s
		p.bk.Unstage(s)
		d := math.Float64frombits(atomic.LoadUint64(&p.dist[s])) // a plain MOV on amd64
		wts := p.g.OutWeights(v)
		out := p.g.Out(v)
		n += int64(len(out))
		for i, u := range out {
			nd := d + 1
			if wts != nil {
				nd = d + wts[i]
			}
			slot := p.f.Slot(u)
			if slot < 0 {
				continue
			}
			if shared {
				if !par.MinFloat64Bits(&p.dist[slot], nd) {
					continue
				}
			} else if math.Float64frombits(p.dist[slot]) > nd {
				p.dist[slot] = math.Float64bits(nd)
			} else {
				continue
			}
			switch {
			case slot < owned:
				p.bk.Add(w, slot, nd)
			case shared:
				p.copyChanged.Add(slot - owned)
			default:
				p.copyChanged.AddOwned(slot-owned, true)
			}
		}
	}
	p.scanned[w] = n
}

// flushBorder ships the distances of the copies improved since the last
// flush, once each and in ascending copy slot: Advance lists only the
// changed copies, in that order, and clears them. Kernel shards take
// contiguous runs of that list, so the merged per-destination message
// order is the sequential pass's at every shard count.
func (p *deltaProgram) flushBorder(ctx *core.Context[float64]) {
	p.changed = p.copyChanged.Advance()
	if len(p.changed) == 0 {
		return
	}
	k := p.kernelShards(ctx, int64(len(p.changed)))
	p.stages = ctx.Stages(k)
	par.Do(k, p.flush)
	ctx.MergeStages()
}

// flushShard is shard w of a flush: it sends its contiguous run of
// p.changed through its stage.
func (p *deltaProgram) flushShard(w int) {
	st, k, n := p.stages[w], len(p.stages), len(p.changed)
	copies := p.dist[p.f.NumOwned():]
	for _, c := range p.changed[w*n/k : (w+1)*n/k] {
		st.Send(p.f.Out[c], math.Float64frombits(copies[c]))
	}
}
