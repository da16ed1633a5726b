// Package sssp is the PIE program for single-source shortest paths
// (Section 5.1 of the paper). Three kernels implement the same PEval /
// IncEval semantics:
//
//   - the retained sequential reference (sssp_ref.go): Dijkstra as PEval
//     and Ramalingam-Reps incremental relaxation as IncEval;
//   - the frontier-parallel kernel (this file): a sharded worklist of
//     improved vertices swept in Bellman-Ford order over the CSR rows,
//     relaxing with an exact atomic float-min;
//   - the bucketed delta-stepping kernel (delta.go): the same sweep
//     staged through distance-range buckets (par.Buckets) with a
//     light/heavy edge split, restoring near-Dijkstra work on weighted
//     graphs with long shortest-path trees at full shard parallelism.
//
// The three are bit-identical by construction: with positive weights
// every candidate distance is the left-to-right sum along one path,
// extending a path never lowers its sum, and min over that candidate set
// is exact — so the fixpoint is unique and independent of relaxation
// order. Bucketing changes only how much work reaching it wastes. The
// differential tests in internal/algo pin this at forced shard counts
// and bucket widths. The positivity precondition the argument rests on
// is enforced by ValidateWeights before any kernel runs.
package sssp

import (
	"fmt"
	"math"
	"sync/atomic"

	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/par"
	"aap/internal/partition"
)

// Inf is the distance of unreachable vertices.
var Inf = math.Inf(1)

// KernelKind selects which SSSP kernel a fragment runs.
type KernelKind int

const (
	// KernelAuto picks per fragment: sequential Dijkstra below the
	// sharding grain, the bucketed kernel when edge weights are
	// dispersed, the plain frontier sweep otherwise.
	KernelAuto KernelKind = iota
	// KernelRef forces the retained sequential Dijkstra reference.
	KernelRef
	// KernelFrontier forces the Bellman-Ford-ordered frontier sweep.
	KernelFrontier
	// KernelBuckets forces the delta-stepping bucketed frontier.
	KernelBuckets
)

// Config parameterizes the SSSP job. The zero value (plus a Source) is
// the production configuration: automatic kernel choice, automatic
// shard count, delta tuned from the mean edge weight.
type Config struct {
	// Source is the external id of the source vertex.
	Source graph.VertexID

	// Shards forces the kernel shard count per round when >= 1
	// (1 exercises the sweeps single-threaded); 0 picks automatically.
	// The differential tests and BenchmarkKernelSSSP force the axis
	// through here.
	Shards int

	// Delta is the bucket width of the delta-stepping kernel: distances
	// [i*Delta, (i+1)*Delta) share bucket i. 0 auto-tunes to the mean
	// edge weight of the fragment. A tiny Delta approaches Dijkstra
	// ordering (least wasted work, most rounds); a huge one degrades to
	// a single bucket, i.e. the Bellman-Ford frontier order.
	Delta float64

	// Kernel selects the kernel; KernelAuto (the zero value) decides
	// per fragment.
	Kernel KernelKind
}

// Job builds the SSSP PIE job for the given source (an external vertex
// id). Edge weights must be positive and finite — enforced up front by
// ValidateWeights; unweighted edges count as 1. Each fragment picks its
// kernel automatically (see KernelAuto).
func Job(source graph.VertexID) core.Job[float64] {
	return JobConfig(Config{Source: source})
}

// JobShards builds the SSSP job with a forced kernel shard count, the
// scaling axis of the differential tests and benchmarks; kernel choice
// stays automatic.
func JobShards(source graph.VertexID, shards int) core.Job[float64] {
	return JobConfig(Config{Source: source, Shards: shards})
}

// JobConfig builds the SSSP job from an explicit configuration.
func JobConfig(cfg Config) core.Job[float64] {
	return core.Job[float64]{
		Name:     "sssp",
		Validate: ValidateWeights,
		New: func(f *partition.Fragment) core.Program[float64] {
			return newKernel(f, cfg)
		},
		Aggregate: math.Min,
		Bytes:     func(float64) int { return 8 },
		Default:   func(int32) float64 { return Inf },
		EncodeVal: codec.AppendFloat64,
		DecodeVal: (*codec.Reader).Float64,
	}
}

// RefJob builds the job over the retained sequential kernel only — the
// pinned oracle of the differential tests.
func RefJob(source graph.VertexID) core.Job[float64] {
	return JobConfig(Config{Source: source, Kernel: KernelRef})
}

// weightDispersionMin is the coefficient-of-variation threshold of the
// kernel heuristic: below it weights are (near) uniform, every frontier
// level is one distance band, and Bellman-Ford order already is
// delta-stepping order — bucketing would only add staging overhead.
const weightDispersionMin = 0.1

// newKernel resolves cfg to a program for fragment f.
func newKernel(f *partition.Fragment, cfg Config) core.Program[float64] {
	switch cfg.Kernel {
	case KernelRef:
		return newRefProgram(f, cfg.Source)
	case KernelFrontier:
		return newProgram(f, cfg.Source, cfg.Shards)
	case KernelBuckets:
		return newDeltaProgram(f, cfg.Source, cfg.Shards, cfg.Delta)
	}
	if cfg.Shards == 0 && par.Kernel(f.Graph().OutSpan(f.Lo, f.Hi)) <= 1 {
		// Too small to shard: sequential Dijkstra is work-optimal.
		return newRefProgram(f, cfg.Source)
	}
	if mean, disp := weightStats(f); disp >= weightDispersionMin {
		// Dispersed weights: long shortest-path trees re-relax badly in
		// Bellman-Ford order; bucket the frontier. The mean is in hand,
		// so resolve the auto delta here instead of rescanning the
		// fragment's weights in newDeltaProgram.
		delta := cfg.Delta
		if !(delta > 0) {
			delta = mean
		}
		return newDeltaProgram(f, cfg.Source, cfg.Shards, delta)
	}
	return newProgram(f, cfg.Source, cfg.Shards)
}

// ValidateWeights enforces the job's documented precondition: every
// edge weight is positive and finite. A zero, negative, NaN or infinite
// weight silently voids the unique-fixpoint argument (relaxation order
// could then change results, and zero-weight cycles never terminate),
// so engines fail fast instead. Unweighted graphs pass trivially.
func ValidateWeights(p *partition.Partitioned) error {
	g := p.G
	if !g.Weighted() {
		return nil
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		out := g.Out(v)
		for i, w := range g.OutWeights(v) {
			if !(w > 0) || math.IsInf(w, 1) {
				return fmt.Errorf("sssp: edge %d->%d has weight %v: edge weights must be positive and finite",
					g.IDOf(v), g.IDOf(out[i]), w)
			}
		}
	}
	return nil
}

// program is the frontier-parallel kernel: distances live in atomic
// float bits, improved owned slots feed a sharded frontier, and each
// round sweeps the frontier's out-edges across kernel shards balanced by
// edge count. Improved F.O copies are recorded in a concurrent mark set
// and flushed once per engine round.
type program struct {
	f      *partition.Fragment
	g      *graph.Graph
	source graph.VertexID
	shards int // forced kernel shard count; 0 = auto per round

	dist        []atomic.Uint64 // float64 bits per local slot
	fr          *par.Frontier   // owned slots to re-expand
	copyChanged *par.Marks      // F.O copies improved since last flush

	bounds  []int   // reusable chunk-boundary scratch
	edges   []int64 // per-shard edge counts for work accounting
	rounds  int     // kernel (frontier) rounds executed
	relaxed int64   // edge relaxations attempted
}

func newProgram(f *partition.Fragment, source graph.VertexID, shards int) *program {
	p := &program{f: f, g: f.Graph(), source: source, shards: shards}
	p.dist = make([]atomic.Uint64, f.Slots())
	inf := math.Float64bits(Inf)
	for i := range p.dist {
		p.dist[i].Store(inf)
	}
	p.fr = par.NewFrontier(f.NumOwned(), max(shards, 1))
	p.copyChanged = par.NewMarks(len(f.Out))
	return p
}

// KernelRounds reports the frontier rounds executed so far.
func (p *program) KernelRounds() int { return p.rounds }

// Relaxations reports the edge relaxations attempted so far — the work
// metric the delta-stepping comparison is about.
func (p *program) Relaxations() int64 { return p.relaxed }

// ScannedEdges reports the raw CSR edges the sweeps read (one per
// out-edge of every expanded frontier vertex) — core.ScanCounter, the
// denominator of the batched multi-source amortization ratio.
func (p *program) ScannedEdges() int64 { return p.relaxed }

// PEval seeds the source if owned and sweeps to the local fixpoint.
func (p *program) PEval(ctx *core.Context[float64]) {
	s, ok := p.g.IndexOf(p.source)
	if !ok || !p.f.Owns(s) {
		return
	}
	p.dist[s-p.f.Lo].Store(math.Float64bits(0))
	p.fr.Add(0, s-p.f.Lo)
	p.sweep(ctx)
	p.flushBorder(ctx)
}

// IncEval lowers distances from the aggregated messages, re-seeds the
// frontier with the improved owned vertices, and resumes the sweep.
func (p *program) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	for _, m := range msgs {
		slot := p.f.Slot(m.V)
		if slot < 0 {
			continue
		}
		if m.Val < math.Float64frombits(p.dist[slot].Load()) {
			p.dist[slot].Store(math.Float64bits(m.Val))
			if p.f.Owns(m.V) {
				p.fr.Add(0, slot)
			}
		}
	}
	p.sweep(ctx)
	p.flushBorder(ctx)
}

// Get returns the current distance of owned vertex v.
func (p *program) Get(v int32) float64 {
	return math.Float64frombits(p.dist[p.f.Slot(v)].Load())
}

// kernelShards resolves the shard count for `work` units this round.
func (p *program) kernelShards(ctx *core.Context[float64], work int64) int {
	if p.shards > 0 {
		return p.shards
	}
	return ctx.Shards(work)
}

// sweep runs frontier rounds to the local fixpoint: each round expands
// the current frontier's out-edges in parallel, relaxing with the exact
// atomic min; newly improved owned slots stage the next frontier,
// improved copies mark the flush set.
func (p *program) sweep(ctx *core.Context[float64]) {
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
		par.Do(k, func(w int) {
			var scanned int64
			for _, s := range items[p.bounds[w]:p.bounds[w+1]] {
				v := p.f.Lo + s
				d := math.Float64frombits(p.dist[s].Load())
				wts := p.g.OutWeights(v)
				out := p.g.Out(v)
				scanned += int64(len(out))
				for i, u := range out {
					wt := 1.0
					if wts != nil {
						wt = wts[i]
					}
					p.relax(u, d+wt, w, owned)
				}
			}
			edges[w] = scanned
		})
		var total int64
		for _, n := range edges {
			total += n
		}
		p.relaxed += total
		ctx.AddWork(int(total))
	}
}

// relax lowers u's distance to nd if it improves, staging owned slots on
// shard w's frontier list and marking improved copies for the flush.
func (p *program) relax(u int32, nd float64, w int, owned int32) {
	slot := p.f.Slot(u)
	if slot < 0 {
		return
	}
	if !par.MinFloat64Bits(&p.dist[slot], nd) {
		return
	}
	if slot < owned {
		p.fr.Add(w, slot)
	} else {
		p.copyChanged.TryMark(slot - owned)
	}
}

// flushBorder ships the distances of copies improved since the last
// flush.
func (p *program) flushBorder(ctx *core.Context[float64]) {
	flushAtomicCopies(ctx, p.f, p.dist, p.copyChanged, p.kernelShards(ctx, int64(len(p.f.Out))))
}

// flushAtomicCopies ships the distances of F.O copies marked in changed,
// staged across k kernel shards and merged in copy-slot order so the
// per-destination message order matches a sequential pass, then clears
// the mark set. Shared by the frontier and delta-stepping kernels.
func flushAtomicCopies(ctx *core.Context[float64], f *partition.Fragment, dist []atomic.Uint64, changed *par.Marks, k int) {
	nOut := len(f.Out)
	if nOut == 0 {
		return
	}
	owned := int32(f.NumOwned())
	if k <= 1 {
		for i, v := range f.Out {
			if changed.Marked(int32(i)) {
				ctx.Send(v, math.Float64frombits(dist[owned+int32(i)].Load()))
			}
		}
	} else {
		stages := ctx.Stages(k)
		par.Do(k, func(w int) {
			st := stages[w]
			for i := w * nOut / k; i < (w+1)*nOut/k; i++ {
				if changed.Marked(int32(i)) {
					st.Send(f.Out[i], math.Float64frombits(dist[owned+int32(i)].Load()))
				}
			}
		})
		ctx.MergeStages()
	}
	changed.Reset()
}
