// Package pagerank is the PIE program for PageRank under AAP (Section 5.3
// of the paper): the delta-accumulative formulation where every vertex
// keeps a score P_v and a pending update x_v, PEval seeds x_v = 1-d,
// local evaluation pushes d*x_v/N_v along out-edges, and sum is the
// aggregate function over the deltas shipped to border vertices. The
// fixpoint P_v = Σ_paths p(v) + (1-d) is order-independent, so PageRank
// needs no bounded staleness (Church-Rosser holds under T1-T3).
//
// The kernel is round-based and deterministic by construction, because
// floating-point sums remember their addition order: each round consumes
// the frontier (owned slots whose pending delta crossed Tol) in
// ascending slot order and applies the pushed shares in that same
// canonical order. An unsharded round pushes directly. A sharded round
// splits the sweep into contiguous frontier chunks and stages each
// chunk's shares into per-(source-shard, dest-shard) buckets; the apply
// phase walks every destination shard's buckets in source-shard order,
// which replays the exact per-slot addition sequence of the direct push
// — bit-identical results at any shard count, so the count is picked
// per round (core.Context.Shards) from the work and the idle cores.
package pagerank

import (
	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/par"
	"aap/internal/partition"
)

// Config parameterizes the PageRank job.
type Config struct {
	// Damping is the damping factor d; 0.85 when zero.
	Damping float64
	// Tol is the residual threshold below which a pending delta is
	// parked instead of propagated; 1e-6 when zero. The total parked
	// residual bounds the L1 error of the fixpoint.
	Tol float64
	// Shards forces the kernel shard count of every round when >= 1;
	// 0 picks per round (core.Context.Shards).
	Shards int
}

func (c Config) withDefaults() Config {
	if c.Damping == 0 {
		c.Damping = 0.85
	}
	if c.Tol == 0 {
		c.Tol = 1e-6
	}
	return c
}

// Job builds the PageRank PIE job.
func Job(cfg Config) core.Job[float64] {
	cfg = cfg.withDefaults()
	return core.Job[float64]{
		Name:      "pagerank",
		New:       func(f *partition.Fragment) core.Program[float64] { return newProgram(f, cfg) },
		Aggregate: func(a, b float64) float64 { return a + b },
		Bytes:     func(float64) int { return 8 },
		EncodeVal: codec.AppendFloat64,
		DecodeVal: (*codec.Reader).Float64,
	}
}

// RefJob builds the job over the sequential reference kernel only — the
// pinned oracle of the differential tests.
func RefJob(cfg Config) core.Job[float64] {
	cfg = cfg.withDefaults()
	return core.Job[float64]{
		Name:      "pagerank",
		New:       func(f *partition.Fragment) core.Program[float64] { return newRefProgram(f, cfg) },
		Aggregate: func(a, b float64) float64 { return a + b },
		Bytes:     func(float64) int { return 8 },
		EncodeVal: codec.AppendFloat64,
		DecodeVal: (*codec.Reader).Float64,
	}
}

// program is the kernel. score and delta are plain slices: every phase
// partitions its writes (frontier chunks own their consumed slots,
// destination shards own their slot words) and par.Do's barrier orders
// the phases, so no atomics are needed on the accumulators.
type program struct {
	f   *partition.Fragment
	g   *graph.Graph
	cfg Config

	score []float64
	delta []float64

	// fr is the worklist of owned slots admitted above Tol. Every
	// admission comes from the one goroutine that owns the slot's bitmap
	// word (AddOwned), and the ordered Advance at each round start makes
	// the consume order canonical for any shard count.
	fr      *par.Frontier
	maxSpan int64       // span of a round over every owned slot
	xs      []float64   // consumed pending mass of an unsharded round
	buckets [][]contrib // (source shard × dest shard) share staging
	bounds  []int
	work    []int64
	rounds  int
}

func newProgram(f *partition.Fragment, cfg Config) *program {
	n := f.Slots()
	return &program{
		f: f, g: f.Graph(), cfg: cfg,
		score:   make([]float64, n),
		delta:   make([]float64, n),
		fr:      par.NewFrontier(f.NumOwned(), 1),
		maxSpan: f.Graph().OutSpan(f.Lo, f.Hi) + int64(f.NumOwned()),
	}
}

// KernelRounds reports frontier rounds executed so far.
func (p *program) KernelRounds() int { return p.rounds }

// PEval seeds every owned vertex with the teleport mass 1-d, runs rounds
// to the local fixpoint, and ships accumulated copy deltas.
func (p *program) PEval(ctx *core.Context[float64]) {
	seed := 1 - p.cfg.Damping
	for s := int32(0); s < int32(p.f.NumOwned()); s++ {
		p.add(s, seed)
	}
	p.run(ctx)
	p.flush(ctx)
}

// IncEval folds incoming delta sums into owned vertices (sequentially —
// the folded message list is small and already in canonical vertex
// order) and resumes the rounds.
func (p *program) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	for _, m := range msgs {
		if s := p.f.Slot(m.V); s >= 0 {
			p.add(s, m.Val)
		}
	}
	p.run(ctx)
	p.flush(ctx)
}

// Get returns the score of owned vertex v including its parked residual.
func (p *program) Get(v int32) float64 {
	s := p.f.Slot(v)
	return p.score[s] + p.delta[s]
}

// add accumulates a delta on local slot s and admits owned slots
// crossing Tol to the frontier (sequential callers only).
func (p *program) add(s int32, d float64) {
	p.delta[s] += d
	if s < int32(p.f.NumOwned()) {
		p.fr.AddOwned(s, p.delta[s] > p.cfg.Tol)
	}
}

// kernelShards resolves the shard count for `work` units this round.
func (p *program) kernelShards(ctx *core.Context[float64], work int64) int {
	if p.cfg.Shards > 0 {
		return p.cfg.Shards
	}
	return ctx.Shards(work)
}

// run executes rounds until the frontier drains. Every round consumes
// the frontier in ascending slot order (score += x, delta = 0) and then
// pushes each consumed x along the out-edges in that same order. An
// unsharded round does exactly that (runSeqRound). A k-shard round does
// it in two barrier-separated parallel phases:
//
//	sweep  — frontier chunk w consumes its slots in order and stages each
//	         pushed share into bucket (w, d), where d keys the
//	         destination shard by the slot's 64-slot word;
//	apply  — destination shard d applies buckets (0,d), (1,d), …, (k-1,d)
//	         sequentially, so the additions landing on any slot replay
//	         the frontier-order sequence of the direct push.
//
// Advancing the frontier clears its dedup bitmap before any slot is
// consumed, which is equivalent to unmark-at-consume: admissions only
// ever happen in the push half, after every current-frontier slot has
// been consumed.
func (p *program) run(ctx *core.Context[float64]) {
	nwords := par.Words(len(p.delta))
	owned, tol := int32(p.f.NumOwned()), p.cfg.Tol
	deg := func(s int32) int64 { return int64(p.g.OutDegree(p.f.Lo+s)) + 1 }
	for {
		frontier := p.fr.Advance(true) // ascending: canonical for any shard count
		if len(frontier) == 0 {
			return
		}
		p.rounds++

		// No round spans more than maxSpan, so when even that much work
		// would run unsharded the frontier's degrees need no summing.
		var span int64
		k := p.kernelShards(ctx, p.maxSpan)
		if k > 1 {
			for _, s := range frontier {
				span += deg(s)
			}
			k = p.kernelShards(ctx, span)
		}
		if k <= 1 {
			p.runSeqRound(frontier, ctx)
			continue
		}
		p.bounds = par.ChunksByWork(frontier, k, span, p.bounds, deg)
		for len(p.buckets) < k*k {
			p.buckets = append(p.buckets, nil)
		}
		if cap(p.work) < k {
			p.work = make([]int64, k)
		}
		work := p.work[:k]

		// Sweep phase: chunk w writes only its consumed slots and its
		// own bucket row.
		par.Do(k, func(w int) {
			var units int64
			row := p.buckets[w*k : w*k+k]
			for d := range row {
				row[d] = row[d][:0]
			}
			for _, s := range frontier[p.bounds[w]:p.bounds[w+1]] {
				x := p.delta[s]
				p.delta[s] = 0
				p.score[s] += x
				v := p.f.Lo + s
				out := p.g.Out(v)
				units += int64(len(out)) + 1
				if len(out) == 0 {
					continue
				}
				share := p.cfg.Damping * x / float64(len(out))
				for _, u := range out {
					if us := p.f.Slot(u); us >= 0 {
						d := par.WordShard(us, k, nwords)
						row[d] = append(row[d], contrib{slot: us, val: share})
					}
				}
			}
			work[w] = units
		})
		var units int64
		for _, u := range work {
			units += u
		}
		ctx.AddWork(int(units))

		// Apply phase: all contributions for a slot land in the single
		// bucket column d = WordShard(slot), so shard d is the only
		// writer of that slot and of its frontier bitmap word — that
		// keying is the write-disjointness invariant. Walking the column
		// in source order replays the sequential addition sequence.
		par.Do(k, func(d int) {
			for w := 0; w < k; w++ {
				for _, c := range p.buckets[w*k+d] {
					x := p.delta[c.slot] + c.val
					p.delta[c.slot] = x
					if c.slot < owned {
						p.fr.AddOwned(c.slot, x > tol)
					}
				}
			}
		})
	}
}

// runSeqRound is the unsharded round: consume the ascending frontier,
// then push its shares directly in frontier order — bit-identical to the
// staged two-phase round at any shard count, without the bucket traffic.
func (p *program) runSeqRound(frontier []int32, ctx *core.Context[float64]) {
	owned, tol := int32(p.f.NumOwned()), p.cfg.Tol
	xs := p.xs[:0]
	for _, s := range frontier {
		x := p.delta[s]
		p.delta[s] = 0
		p.score[s] += x
		xs = append(xs, x)
	}
	p.xs = xs
	var work int64
	for i, s := range frontier {
		v := p.f.Lo + s
		out := p.g.Out(v)
		work += int64(len(out)) + 1
		if len(out) == 0 {
			continue
		}
		share := p.cfg.Damping * xs[i] / float64(len(out))
		for _, u := range out {
			us := p.f.Slot(u)
			if us < 0 {
				continue
			}
			x := p.delta[us] + share
			p.delta[us] = x
			if us < owned {
				p.fr.AddOwned(us, x > tol)
			}
		}
	}
	ctx.AddWork(int(work))
}

// flush ships the accumulated copy deltas to their owners and resets
// them.
func (p *program) flush(ctx *core.Context[float64]) {
	base := int32(p.f.NumOwned())
	for i, v := range p.f.Out {
		s := base + int32(i)
		if p.delta[s] > 0 {
			ctx.Send(v, p.delta[s])
			p.delta[s] = 0
		}
	}
}
