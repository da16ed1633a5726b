// Batched multi-source SSSP: k sources evaluated in one engine run over
// shared edge scans — the serving plane's amortization kernel.
//
// Each local slot holds a lane vector of k distances, one per source.
// The frontier is the union of the per-lane frontiers: a slot is
// (re)expanded when ANY lane improved, and expanding it reads its CSR
// row ONCE, relaxing all k lanes against each edge. That is the
// share-the-scan argument: where k separate runs read a row once per
// source that reaches it, the batch reads it once per union-frontier
// activation, so the scanned-edge total (ScannedEdges, surfaced through
// core.RunStats) drops toward 1/k of the separate-run sum as the
// sources' reach overlaps.
//
// Results are bit-identical to k separate single-source runs, by the
// same unique-fixpoint argument the single-source kernels share: lanes
// never mix (relaxation only ever combines lane l's distance with an
// edge weight), every candidate distance in lane l is the exact
// left-to-right float64 sum along one path from source l, and the
// atomic min over that candidate set is exact — so each lane converges
// to exactly the value its own run would, regardless of scan order or
// how lanes share frontier activations. The differential tests pin this
// at forced shard counts.
package sssp

import (
	"math"
	"sync/atomic"

	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/par"
	"aap/internal/partition"
)

// MultiConfig parameterizes the batched multi-source SSSP job.
type MultiConfig struct {
	// Sources are the external ids of the batch's sources; lane i of
	// every result vector belongs to Sources[i].
	Sources []graph.VertexID

	// Shards forces the kernel shard count per round when >= 1;
	// 0 picks automatically (the same axis as Config.Shards).
	Shards int
}

// MultiJob builds the batched multi-source SSSP job: one engine run
// whose per-vertex result is the lane vector of distances from every
// source in cfg.Sources, bit-identical lane by lane to separate
// single-source runs. Edge weights must be positive and finite, the
// same precondition (and fail-fast Validate) as the single-source job.
func MultiJob(cfg MultiConfig) core.Job[[]float64] {
	k := len(cfg.Sources)
	return core.Job[[]float64]{
		Name:     "sssp-multi",
		Validate: ValidateWeights,
		New: func(f *partition.Fragment) core.Program[[]float64] {
			return newMultiProgram(f, cfg)
		},
		// Elementwise min, folded into a in place: a is always the
		// accumulating entry of the fold, whose vector the first message
		// owns outright (flushBorder carves every shipped vector from a
		// fresh block, capped at its k lanes).
		Aggregate: func(a, b []float64) []float64 {
			n := min(len(a), len(b))
			for i := 0; i < n; i++ {
				if b[i] < a[i] {
					a[i] = b[i]
				}
			}
			return a
		},
		Bytes: func(v []float64) int { return 8*len(v) + 4 },
		Default: func(int32) []float64 {
			d := make([]float64, k)
			for i := range d {
				d[i] = Inf
			}
			return d
		},
		EncodeVal: codec.AppendFloat64s,
		DecodeVal: (*codec.Reader).Float64s,
	}
}

// Lane extracts source lane l from a multi-source result vector as a
// per-vertex distance slice — the shape a single-source run returns.
func Lane(values [][]float64, l int) []float64 {
	out := make([]float64, len(values))
	for v, lanes := range values {
		if l < len(lanes) {
			out[v] = lanes[l]
		} else {
			out[v] = Inf
		}
	}
	return out
}

// multiProgram is the per-fragment state: a slots×k lane-major distance
// matrix in atomic float bits, the union frontier, and the shared-scan
// sweep.
type multiProgram struct {
	f       *partition.Fragment
	g       *graph.Graph
	sources []graph.VertexID
	k       int
	shards  int

	dist        []atomic.Uint64 // float64 bits, dist[slot*k+lane]
	fr          *par.Frontier   // union frontier over owned slots
	copyChanged *par.Marks      // F.O copies with any improved lane

	bounds  []int     // reusable chunk-boundary scratch
	edges   []int64   // per-shard scan counts
	snap    []float64 // per-shard lane snapshot of the expanding slot, laneStride apart
	results laneBlock // what Get carves from: one block per NumOwned calls
	rounds  int
	scanned int64 // raw CSR edges read (once per expansion, k lanes served)
}

func newMultiProgram(f *partition.Fragment, cfg MultiConfig) *multiProgram {
	p := &multiProgram{
		f: f, g: f.Graph(),
		sources: cfg.Sources, k: len(cfg.Sources), shards: cfg.Shards,
	}
	p.dist = make([]atomic.Uint64, f.Slots()*p.k)
	inf := math.Float64bits(Inf)
	for i := range p.dist {
		p.dist[i].Store(inf)
	}
	p.fr = par.NewFrontier(f.NumOwned(), max(cfg.Shards, 1))
	p.copyChanged = par.NewMarks(len(f.Out))
	return p
}

// KernelRounds reports the frontier rounds executed so far.
func (p *multiProgram) KernelRounds() int { return p.rounds }

// ScannedEdges reports the raw CSR edges the sweeps read; each serves
// all k lanes (core.ScanCounter).
func (p *multiProgram) ScannedEdges() int64 { return p.scanned }

// PEval seeds every owned source's lane and sweeps to the local
// fixpoint.
func (p *multiProgram) PEval(ctx *core.Context[[]float64]) {
	for l, src := range p.sources {
		s, ok := p.g.IndexOf(src)
		if !ok || !p.f.Owns(s) {
			continue
		}
		slot := s - p.f.Lo
		p.dist[int(slot)*p.k+l].Store(math.Float64bits(0))
		p.fr.Add(0, slot)
	}
	p.sweep(ctx)
	p.flushBorder(ctx)
}

// IncEval lowers lane distances from the folded messages, re-seeds the
// union frontier with slots any lane improved, and resumes the sweep.
func (p *multiProgram) IncEval(msgs []core.VMsg[[]float64], ctx *core.Context[[]float64]) {
	for _, m := range msgs {
		slot := p.f.Slot(m.V)
		if slot < 0 {
			continue
		}
		base := int(slot) * p.k
		improved := false
		for l := 0; l < p.k && l < len(m.Val); l++ {
			nd := m.Val[l]
			if nd < math.Float64frombits(p.dist[base+l].Load()) {
				p.dist[base+l].Store(math.Float64bits(nd))
				improved = true
			}
		}
		if improved && p.f.Owns(m.V) {
			p.fr.Add(0, slot)
		}
	}
	p.sweep(ctx)
	p.flushBorder(ctx)
}

// laneBlock is one allocation that lane vectors are carved from, so a
// flush or an Assemble costs one allocation, not one per vertex. Each
// vector is capped at its own lanes: whoever ends up owning it (the
// fold's in-place Aggregate, a caller appending to a result) cannot
// reach the neighbouring vector.
type laneBlock []float64

func (b *laneBlock) take(k int) []float64 {
	vec := (*b)[:k:k]
	*b = (*b)[k:]
	return vec
}

// lanes copies the lane vector of a slot into a vector carved from blk.
func (p *multiProgram) lanes(slot int, blk *laneBlock) []float64 {
	vec := blk.take(p.k)
	base := slot * p.k
	for l := range vec {
		vec[l] = math.Float64frombits(p.dist[base+l].Load())
	}
	return vec
}

// Get returns the lane vector of owned vertex v as of the call.
func (p *multiProgram) Get(v int32) []float64 {
	if len(p.results) < p.k {
		p.results = make(laneBlock, p.f.NumOwned()*p.k)
	}
	return p.lanes(int(v-p.f.Lo), &p.results)
}

func (p *multiProgram) kernelShards(ctx *core.Context[[]float64], work int64) int {
	if p.shards > 0 {
		return p.shards
	}
	return ctx.Shards(work)
}

// sweep expands the union frontier to the local fixpoint: one CSR row
// read per expanded slot, all k lanes relaxed against each edge.
func (p *multiProgram) sweep(ctx *core.Context[[]float64]) {
	owned := int32(p.f.NumOwned())
	for {
		items := p.fr.Advance(false)
		if len(items) == 0 {
			return
		}
		p.rounds++
		deg := func(s int32) int64 { return int64(p.g.OutDegree(p.f.Lo+s)) + 1 }
		var span int64
		for _, s := range items {
			span += deg(s)
		}
		k := p.kernelShards(ctx, span)
		p.fr.EnsureShards(k)
		p.bounds = par.ChunksByWork(items, k, span, p.bounds, deg)
		if cap(p.edges) < k {
			p.edges = make([]int64, k)
		}
		edges := p.edges[:k]
		// A cache line or more per shard, so shards do not share one.
		laneStride := (p.k + 7) &^ 7
		if len(p.snap) < k*laneStride {
			p.snap = make([]float64, k*laneStride)
		}
		par.Do(k, func(w int) {
			var scanned int64
			d := p.snap[w*laneStride:][:p.k]
			for _, s := range items[p.bounds[w]:p.bounds[w+1]] {
				v := p.f.Lo + s
				base := int(s) * p.k
				live := false
				for l := range d {
					d[l] = math.Float64frombits(p.dist[base+l].Load())
					live = live || !math.IsInf(d[l], 1)
				}
				wts := p.g.OutWeights(v)
				out := p.g.Out(v)
				scanned += int64(len(out))
				if !live {
					continue // stale activation: every lane still at Inf
				}
				for i, u := range out {
					wt := 1.0
					if wts != nil {
						wt = wts[i]
					}
					p.relax(u, d, wt, w, owned)
				}
			}
			edges[w] = scanned
		})
		var total int64
		for _, n := range edges {
			total += n
		}
		p.scanned += total
		ctx.AddWork(int(total))
	}
}

// relax lowers every reachable lane of u through an edge of weight wt
// from a slot whose lane snapshot is d; any improvement stages u once.
func (p *multiProgram) relax(u int32, d []float64, wt float64, w int, owned int32) {
	slot := p.f.Slot(u)
	if slot < 0 {
		return
	}
	base := int(slot) * p.k
	improved := false
	for l, dl := range d {
		if math.IsInf(dl, 1) {
			continue
		}
		if par.MinFloat64Bits(&p.dist[base+l], dl+wt) {
			improved = true
		}
	}
	if !improved {
		return
	}
	if slot < owned {
		p.fr.Add(w, slot)
	} else {
		p.copyChanged.TryMark(slot - owned)
	}
}

// flushBorder ships the lane vectors of copies improved since the last
// flush, staged across kernel shards in copy-slot order (the same
// deterministic merge as the single-source kernels).
func (p *multiProgram) flushBorder(ctx *core.Context[[]float64]) {
	nOut := len(p.f.Out)
	if nOut == 0 {
		return
	}
	owned := p.f.NumOwned()
	// sendRange ships the improved copies in [lo, hi), their vectors
	// carved from one block sized by a counting pass over the marks.
	sendRange := func(send func(v int32, val []float64), lo, hi int) {
		n := 0
		for i := lo; i < hi; i++ {
			if p.copyChanged.Marked(int32(i)) {
				n++
			}
		}
		blk := make(laneBlock, n*p.k)
		for i := lo; i < hi; i++ {
			if p.copyChanged.Marked(int32(i)) {
				send(p.f.Out[i], p.lanes(owned+i, &blk))
			}
		}
	}
	k := p.kernelShards(ctx, int64(nOut)*int64(p.k))
	if k <= 1 {
		sendRange(ctx.Send, 0, nOut)
	} else {
		stages := ctx.Stages(k)
		par.Do(k, func(w int) {
			sendRange(stages[w].Send, w*nOut/k, (w+1)*nOut/k)
		})
		ctx.MergeStages()
	}
	p.copyChanged.Reset()
}
