// The delta-stepping SSSP kernel: the frontier-parallel sweep of
// sssp.go staged through the bucketed frontier (par.Buckets).
//
// Owned vertices enter distance-range buckets of width delta. Buckets
// drain lowest first; within a bucket, light edges (weight <= delta)
// relax repeatedly until the bucket settles — a light relaxation can
// only land in the current or the next bucket, so the inner loop is a
// local fixpoint — and only then do the settled vertices ship their
// heavy edges (weight > delta), each of which lands strictly beyond the
// current bucket. The effect is near-Dijkstra processing order at full
// shard parallelism: a vertex is expanded when its distance is already
// within delta of final, instead of every time it improves, which on
// long shortest-path trees (road networks) removes most re-relaxations
// the Bellman-Ford order pays for.
//
// Correctness does not depend on any of that ordering: distances relax
// through the same exact atomic min as the other kernels, every
// improvement re-stages its vertex, and the sweep only stops when all
// buckets are empty — so the kernel terminates at the same unique
// fixpoint bit for bit, as the differential tests pin across bucket
// widths and shard counts.

package sssp

import (
	"math"
	"sync/atomic"

	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/par"
	"aap/internal/partition"
)

// weightStats scans the fragment's owned out-edges and returns the mean
// edge weight and the coefficient of variation (the weight-dispersion
// signal of the kernel heuristic). Unweighted fragments report (1, 0).
func weightStats(f *partition.Fragment) (mean, disp float64) {
	g := f.Graph()
	if !g.Weighted() {
		return 1, 0
	}
	var sum, sumSq float64
	var n int64
	for v := f.Lo; v < f.Hi; v++ {
		for _, w := range g.OutWeights(v) {
			sum += w
			sumSq += w * w
			n++
		}
	}
	if n == 0 || !(sum > 0) {
		return 1, 0
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance) / mean
}

// deltaProgram is the per-fragment state of the bucketed kernel.
type deltaProgram struct {
	f      *partition.Fragment
	g      *graph.Graph
	source graph.VertexID
	shards int     // forced kernel shard count; 0 = auto per phase
	delta  float64 // bucket width

	dist        []atomic.Uint64 // float64 bits per local slot
	bk          *par.Buckets    // owned slots staged by distance range
	copyChanged *par.Marks      // F.O copies improved since last flush
	settledIn   *par.Marks      // dedups the per-bucket settled list

	settled []int32 // vertices settled in the current bucket (heavy-phase input)
	items   []int32 // TakeCur scratch
	seeds   []int32 // IncEval re-seed scratch
	bounds  []int   // reusable chunk-boundary scratch
	scanned []int64 // per-shard relaxation counts

	rounds  int   // parallel sweep phases executed
	buckets int   // nonempty buckets drained
	relaxed int64 // edge relaxations attempted
}

// newDeltaProgram builds the bucketed kernel for one fragment. A delta
// that is not a positive number (zero, negative, NaN) auto-tunes the
// bucket width to the fragment's mean edge weight — one bucket then
// spans roughly one expected hop, the classic delta-stepping starting
// point (unweighted fragments get delta 1, i.e. BFS levels).
func newDeltaProgram(f *partition.Fragment, source graph.VertexID, shards int, delta float64) *deltaProgram {
	if !(delta > 0) {
		delta, _ = weightStats(f)
	}
	p := &deltaProgram{f: f, g: f.Graph(), source: source, shards: shards, delta: delta}
	p.dist = make([]atomic.Uint64, f.Slots())
	inf := math.Float64bits(Inf)
	for i := range p.dist {
		p.dist[i].Store(inf)
	}
	p.bk = par.NewBuckets(f.NumOwned(), max(shards, 1), delta)
	p.copyChanged = par.NewMarks(len(f.Out))
	p.settledIn = par.NewMarks(f.NumOwned())
	return p
}

// Delta returns the resolved bucket width.
func (p *deltaProgram) Delta() float64 { return p.delta }

// KernelRounds reports the parallel sweep phases executed so far.
func (p *deltaProgram) KernelRounds() int { return p.rounds }

// BucketsDrained reports the nonempty buckets drained so far.
func (p *deltaProgram) BucketsDrained() int { return p.buckets }

// Relaxations reports the edge relaxations attempted so far.
func (p *deltaProgram) Relaxations() int64 { return p.relaxed }

// ScannedEdges reports the raw CSR edges the sweeps read
// (core.ScanCounter).
func (p *deltaProgram) ScannedEdges() int64 { return p.relaxed }

// PEval seeds the source if owned and sweeps to the local fixpoint.
func (p *deltaProgram) PEval(ctx *core.Context[float64]) {
	s, ok := p.g.IndexOf(p.source)
	if !ok || !p.f.Owns(s) {
		return
	}
	p.dist[s-p.f.Lo].Store(math.Float64bits(0))
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
		if m.Val < math.Float64frombits(p.dist[slot].Load()) {
			p.dist[slot].Store(math.Float64bits(m.Val))
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
			p.bk.Add(0, s, math.Float64frombits(p.dist[s].Load()))
		}
	}
	p.sweep(ctx)
	p.flushBorder(ctx)
}

// Get returns the current distance of owned vertex v.
func (p *deltaProgram) Get(v int32) float64 {
	return math.Float64frombits(p.dist[p.f.Slot(v)].Load())
}

// kernelShards resolves the shard count for `work` units this phase.
func (p *deltaProgram) kernelShards(ctx *core.Context[float64], work int64) int {
	if p.shards > 0 {
		return p.shards
	}
	return ctx.Shards(work)
}

// sweep drains buckets to the local fixpoint. Per bucket: the light
// phase re-takes and relaxes light edges until no staging lands in the
// bucket anymore (settling it), then one heavy phase ships the settled
// vertices' heavy edges, which land strictly beyond the bucket.
func (p *deltaProgram) sweep(ctx *core.Context[float64]) {
	owned := int32(p.f.NumOwned())
	for {
		p.settled = p.settled[:0]
		p.settledIn.Reset()
		for {
			p.items = p.bk.TakeCur(p.items)
			if len(p.items) == 0 {
				break
			}
			for _, s := range p.items {
				if p.settledIn.TryMark(s) {
					p.settled = append(p.settled, s)
				}
			}
			p.relaxPhase(ctx, p.items, true, owned)
		}
		if len(p.settled) > 0 {
			p.buckets++
			p.relaxPhase(ctx, p.settled, false, owned)
		}
		if !p.bk.Advance() {
			return
		}
	}
}

// relaxPhase expands items' out-edges of one weight class — light
// (weight <= delta) or heavy — in parallel across kernel shards
// balanced by degree, relaxing with the exact atomic min.
func (p *deltaProgram) relaxPhase(ctx *core.Context[float64], items []int32, light bool, owned int32) {
	p.rounds++
	deg := func(s int32) int64 { return int64(p.g.OutDegree(p.f.Lo+s)) + 1 }
	var span int64
	for _, s := range items {
		span += deg(s)
	}
	k := p.kernelShards(ctx, span)
	p.bk.EnsureShards(k)
	p.bounds = par.ChunksByWork(items, k, span, p.bounds, deg)
	if cap(p.scanned) < k {
		p.scanned = make([]int64, k)
	}
	scanned := p.scanned[:k]
	par.Do(k, func(w int) {
		var n int64
		for _, s := range items[p.bounds[w]:p.bounds[w+1]] {
			v := p.f.Lo + s
			d := math.Float64frombits(p.dist[s].Load())
			wts := p.g.OutWeights(v)
			for i, u := range p.g.Out(v) {
				wt := 1.0
				if wts != nil {
					wt = wts[i]
				}
				if (wt <= p.delta) != light {
					continue
				}
				n++
				p.relax(u, d+wt, w, owned)
			}
		}
		scanned[w] = n
	})
	var total int64
	for _, n := range scanned {
		total += n
	}
	p.relaxed += total
	ctx.AddWork(int(total))
}

// relax lowers u's distance to nd if it improves, staging owned slots
// into the bucket of their new distance and marking improved copies for
// the flush. A racing further improvement can leave nd stale-high here;
// the loser's staging then fails the bucket CAS-min (or goes stale) and
// the winner's bucket is the one drained — the processing always reads
// the then-current distance.
func (p *deltaProgram) relax(u int32, nd float64, w int, owned int32) {
	slot := p.f.Slot(u)
	if slot < 0 {
		return
	}
	if !par.MinFloat64Bits(&p.dist[slot], nd) {
		return
	}
	if slot < owned {
		p.bk.Add(w, slot, nd)
	} else {
		p.copyChanged.TryMark(slot - owned)
	}
}

// flushBorder ships the distances of copies improved since the last
// flush.
func (p *deltaProgram) flushBorder(ctx *core.Context[float64]) {
	flushAtomicCopies(ctx, p.f, p.dist, p.copyChanged, p.kernelShards(ctx, int64(len(p.f.Out))))
}
