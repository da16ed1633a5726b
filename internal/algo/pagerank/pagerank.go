// Package pagerank is the PIE program for PageRank under AAP (Section 5.3
// of the paper): the delta-accumulative formulation where every vertex
// keeps a score P_v and a pending update x_v, PEval seeds x_v = 1-d,
// local evaluation pushes d*x_v/N_v along out-edges, and sum is the
// aggregate function over the deltas shipped to border vertices. The
// fixpoint P_v = Σ_paths p(v) + (1-d) is order-independent, so PageRank
// needs no bounded staleness (Church-Rosser holds under T1-T3).
//
// The kernel is round-based and deterministic by construction, because
// floating-point sums remember their addition order. A round consumes
// the frontier (owned slots whose pending delta crossed the call's
// threshold θ, below) in ascending slot order and a consumed slot pushes
// at once — Gauss–Seidel inside a block of blockSlots owned slots,
// Jacobi across blocks:
//
//   - a share for an owned slot of the source's own block lands in delta
//     immediately, so the later slots of the same sweep fold it in and
//     push it on (on a lattice that halves the sweeps: the spectral
//     radius of Gauss–Seidel is the square of Jacobi's);
//   - a share for an owned slot of another block accumulates in next, in
//     ascending source order, and reaches delta by one addition per
//     touched slot at the round's end;
//   - a share for an F.O copy goes straight into the copy's delta, which
//     nothing reads before the flush.
//
// The block, not the shard, is the unit of determinism: it is a property
// of the fragment's slot numbering, never of the machine. A sharded round
// gives each shard whole blocks, so the in-block additions are the same
// at every shard count, and delivers the other shares in ascending source
// order (run). Every slot therefore sees one addition sequence whatever
// the shard count — Job is bit-identical to RefJob at all of them — and
// the count is picked per round (core.Context.Shards) from the work and
// the idle cores.
//
// Every call converges coarse to fine, the accumulative iteration of
// Maiter (Zhang et al., TPDS 2014): large deltas first, small ones once
// the large ones have settled. A call propagates only deltas above
// θ = max(Tol, coarse × the largest delta it starts with) — the seed 1-d
// in PEval, the largest folded message in IncEval — admitting every
// owned slot above θ, residual an earlier call parked included, and when
// it leaves some owned delta above Tol, it sends itself a zero delta, so
// that the engine runs it again; a round whose only message is that wake
// has θ = Tol. PEval is thus a bounded local pass, as the PIE model has
// it, not a local solve: the residual it parks merges with the border
// mass that arrives later and is pushed once, not twice. A lone
// fragment, which no border mass reaches, solves to Tol in PEval and
// sends nothing. On the benchmark's 490k-vertex road lattice 8 fragments
// do about the work of one fragment's PEval (105 M units); re-converging
// to Tol on every call did 1.8–2.2× that, and a PEval to Tol followed by
// coarse-to-fine IncEvals about 1.2×. A run still ends with every owned
// residual at most Tol, the bound Config.Tol documents.
package pagerank

import (
	"math"
	"math/bits"
	"sync/atomic"

	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/par"
	"aap/internal/partition"
)

// Config parameterizes the PageRank job.
type Config struct {
	// Damping is the damping factor d; 0.85 unless it lies in (0, 1).
	Damping float64
	// Tol is the residual threshold below which a pending delta is
	// parked instead of propagated; 1e-6 unless it is positive and
	// finite. The total parked residual bounds the L1 error of the
	// fixpoint.
	Tol float64
	// Shards forces the kernel shard count of every round when >= 1;
	// 0 picks per round (core.Context.Shards).
	Shards int
}

// withDefaults fails safe, NaN included: no delta is ever above a NaN or
// infinite Tol (every score would stay 1-d), every delta is above a
// negative one (the rounds would never end), and at Damping >= 1 the
// pushed mass does not contract. Not Job.Validate's business: a Session
// caches that verdict by Job.Name, so it may depend only on the graph.
func (c Config) withDefaults() Config {
	if !(c.Damping > 0 && c.Damping < 1) {
		c.Damping = 0.85
	}
	if !(c.Tol > 0) || math.IsInf(c.Tol, 1) {
		c.Tol = 1e-6
	}
	return c
}

// Job builds the PageRank PIE job.
func Job(cfg Config) core.Job[float64] {
	cfg = cfg.withDefaults()
	return job(func(f *partition.Fragment) core.Program[float64] { return newProgram(f, cfg) })
}

// RefJob builds the job over the sequential reference kernel only — the
// pinned oracle of the differential tests.
func RefJob(cfg Config) core.Job[float64] {
	cfg = cfg.withDefaults()
	return job(func(f *partition.Fragment) core.Program[float64] { return newRefProgram(f, cfg) })
}

func job(newProg func(*partition.Fragment) core.Program[float64]) core.Job[float64] {
	return core.Job[float64]{
		Name:      "pagerank",
		New:       newProg,
		Aggregate: func(a, b float64) float64 { return a + b },
		Bytes:     func(float64) int { return 8 },
		EncodeVal: codec.AppendFloat64,
		DecodeVal: (*codec.Reader).Float64,
	}
}

// blockShift sizes the block: 4096 slots, 64 frontier-bitmap words.
// Results depend on it, so it is a constant and not a setting.
const (
	blockShift = 12
	blockSlots = 1 << blockShift
)

// program is the kernel. score, delta and next are plain slices: every
// phase partitions its writes (a shard owns the slots and bitmap words of
// its blocks; next, pend and the copies belong to shard 0 during the sweep
// and to the owning shard after it) and par.Do's barrier orders the
// phases, so no atomics are needed on the accumulators.
type program struct {
	f   *partition.Fragment
	cfg Config

	score []float64
	delta []float64
	theta float64 // this call's propagation threshold θ

	// next accumulates, per owned slot, the shares that wait for the
	// round's end and pend marks the slots it holds. Empty between rounds.
	next []float64
	pend []uint64

	// fr is the worklist of owned slots admitted above θ. Every
	// admission comes from the one goroutine that owns the slot's block
	// (AddOwned), and the ordered Advance at each round start makes the
	// consume order canonical for any shard count.
	fr       *par.Frontier
	maxSpan  int64       // span of a round over every owned slot
	bounds   []int       // frontier chunk per shard, cut between blocks
	blockEnd []int       // shard w owns blocks [blockEnd[w], blockEnd[w+1])
	shardOf  []int       // block → owning shard, this round
	buckets  [][]contrib // (source shard × dest shard) staging of shards >= 1
	rounds   int
}

// contrib is one cross-block share staged between sweep and settle.
type contrib struct {
	slot int32
	val  float64
}

func newProgram(f *partition.Fragment, cfg Config) *program {
	n := f.Slots()
	return &program{
		f: f, cfg: cfg,
		score:   make([]float64, n),
		delta:   make([]float64, n),
		next:    make([]float64, f.NumOwned()),
		pend:    make([]uint64, par.Words(f.NumOwned())),
		fr:      par.NewFrontier(f.NumOwned()),
		maxSpan: f.Graph().OutSpan(f.Lo, f.Hi) + int64(f.NumOwned()),
		shardOf: make([]int, (n+blockSlots-1)>>blockShift),
	}
}

// KernelRounds reports frontier rounds executed so far.
func (p *program) KernelRounds() int { return p.rounds }

// PEval seeds every owned vertex with the teleport mass 1-d, runs rounds
// at pevalThreshold, ships accumulated copy deltas, and wakes the
// fragment for the residual it parked.
func (p *program) PEval(ctx *core.Context[float64]) {
	p.theta = pevalThreshold(p.f, p.cfg)
	seed := 1 - p.cfg.Damping
	for s := int32(0); s < int32(p.f.NumOwned()); s++ {
		p.add(s, seed)
	}
	p.run(ctx)
	p.flush(ctx)
	wake(ctx, p.f, p.delta, p.theta, p.cfg.Tol)
}

// IncEval folds incoming delta sums into owned vertices (sequentially —
// the folded message list is small and already in canonical vertex
// order), admits every owned slot above θ (threshold) and resumes the
// rounds at θ; residual left between Tol and θ wakes the fragment again.
func (p *program) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	p.theta = threshold(largest(msgs), p.cfg.Tol)
	for _, m := range msgs {
		if s := p.f.Slot(m.V); s >= 0 {
			p.delta[s] += m.Val
		}
	}
	for s, x := range p.delta[:p.f.NumOwned()] {
		p.fr.AddOwned(int32(s), x > p.theta)
	}
	p.run(ctx)
	p.flush(ctx)
	wake(ctx, p.f, p.delta, p.theta, p.cfg.Tol)
}

// Get returns the score of owned vertex v including its parked residual.
func (p *program) Get(v int32) float64 {
	s := p.f.Slot(v)
	return p.score[s] + p.delta[s]
}

// add accumulates a delta on local slot s and admits owned slots
// crossing θ to the frontier (sequential callers only).
func (p *program) add(s int32, d float64) {
	p.delta[s] += d
	if s < int32(p.f.NumOwned()) {
		p.fr.AddOwned(s, p.delta[s] > p.theta)
	}
}

// kernelShards resolves the shard count for `work` units this round.
func (p *program) kernelShards(ctx *core.Context[float64], work int64) int {
	if p.cfg.Shards > 0 {
		return p.cfg.Shards
	}
	return ctx.Shards(work)
}

// run executes rounds until the frontier drains. A round is two
// barrier-separated phases over k shards of whole blocks (k = 1 runs
// both on the caller):
//
//	sweep  — shard w consumes its frontier chunk in ascending order, each
//	         slot pushing at once: in-block shares into delta, the rest
//	         into next or the copy (shard 0, whose sources come first) or
//	         bucket (w, destination shard);
//	settle — shard d applies buckets (1,d), …, (k-1,d) in that order,
//	         then folds next into delta for the slots of its blocks and
//	         admits those that crossed θ.
//
// Advance clears the dedup bitmap before any slot is consumed, so a slot
// that an earlier slot of its block re-admits before its own turn is
// consumed in this sweep and listed again in the next, which skips it.
func (p *program) run(ctx *core.Context[float64]) {
	g := p.f.Graph()
	deg := func(s int32) int64 { return int64(g.OutDegree(p.f.Lo+s)) + 1 }
	for {
		frontier := p.fr.Advance() // ascending: canonical for any shard count
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
		p.plan(frontier, k, span, deg)

		var units atomic.Int64
		par.Do(k, func(w int) { units.Add(p.sweep(w, k, frontier[p.bounds[w]:p.bounds[w+1]])) })
		ctx.AddWork(int(units.Load()))
		par.Do(k, func(d int) { p.settle(d, k) })
	}
}

// plan cuts the frontier into k chunks of near-equal work whose
// boundaries fall between blocks, and gives shard w the blocks from its
// chunk's first up to the next chunk's first (the outer shards take the
// blocks before and after the frontier, copies included): the one table
// both phases' write-disjointness rests on.
func (p *program) plan(frontier []int32, k int, span int64, deg func(int32) int64) {
	p.bounds = par.ChunksByWork(frontier, k, span, p.bounds, deg)
	par.SnapChunks(frontier, p.bounds, blockShift)
	p.blockEnd = append(p.blockEnd[:0], 0)
	for w := 1; w <= k; w++ {
		end := len(p.shardOf)
		if i := p.bounds[w]; i < len(frontier) {
			end = int(frontier[i] >> blockShift)
		}
		for b := p.blockEnd[w-1]; b < end; b++ {
			p.shardOf[b] = w - 1
		}
		p.blockEnd = append(p.blockEnd, end)
	}
	for len(p.buckets) < k*k {
		p.buckets = append(p.buckets, nil)
	}
}

// sweep consumes shard w's frontier chunk and returns its work units.
// It writes only the owned slots and frontier words of the chunk's
// blocks, bucket row w, and — shard 0 alone — next, pend and the copies.
func (p *program) sweep(w, k int, chunk []int32) (units int64) {
	g, owned, tol := p.f.Graph(), int32(p.f.NumOwned()), p.theta
	row := p.buckets[w*k : w*k+k]
	for d := range row {
		row[d] = row[d][:0]
	}
	for _, s := range chunk {
		x := p.delta[s]
		if !(x > tol) {
			continue // consumed earlier in the sweep that re-admitted it
		}
		p.delta[s] = 0
		p.score[s] += x
		out := g.Out(p.f.Lo + s)
		units += int64(len(out)) + 1
		if len(out) == 0 {
			continue
		}
		share := p.cfg.Damping * x / float64(len(out))
		lo := s &^ (blockSlots - 1)
		n := uint32(min(owned-lo, blockSlots)) // owned slots of s's block
		for _, u := range out {
			us := p.f.Slot(u)
			switch {
			case uint32(us-lo) < n:
				y := p.delta[us] + share
				p.delta[us] = y
				p.fr.AddOwned(us, y > tol)
			case us < 0:
			case w != 0:
				d := p.shardOf[us>>blockShift]
				row[d] = append(row[d], contrib{slot: us, val: share})
			case us < owned:
				p.next[us] += share
				p.pend[us>>6] |= 1 << (us & 63)
			default:
				p.delta[us] += share
			}
		}
	}
	return units
}

// settle ends the round for the blocks of shard d: the staged shares
// bound for them follow shard 0's in source-shard order — the ascending
// source order of an unsharded sweep — and each slot next holds a sum
// for takes it in one addition.
func (p *program) settle(d, k int) {
	owned, tol := int32(p.f.NumOwned()), p.theta
	for w := 1; w < k; w++ {
		for _, c := range p.buckets[w*k+d] {
			if c.slot >= owned {
				p.delta[c.slot] += c.val
				continue
			}
			p.next[c.slot] += c.val
			p.pend[c.slot>>6] |= 1 << (c.slot & 63)
		}
	}
	const blockWords = blockSlots >> 6
	for i := p.blockEnd[d] * blockWords; i < min(p.blockEnd[d+1]*blockWords, len(p.pend)); i++ {
		word := p.pend[i]
		if word == 0 {
			continue
		}
		p.pend[i] = 0
		for ; word != 0; word &= word - 1 {
			us := int32(i<<6 + bits.TrailingZeros64(word))
			x := p.delta[us] + p.next[us]
			p.delta[us] = x
			p.next[us] = 0
			p.fr.AddOwned(us, x > tol)
		}
	}
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

// coarse is θ's fraction of the largest delta a call starts with: a
// power of two, so θ is exact, and a constant, because results depend on
// it. Among 1/128…1/8 the work falls as it grows and the messages rise;
// on RoadNet(700, 700) in 8 fragments the wall time was lowest at 1/32.
const coarse = 1.0 / 32

// threshold is a call's propagation threshold θ = max(Tol, coarse × top),
// top being the largest delta the call starts with: a pure function of
// the seed or the folded messages, so every kernel and shard count
// computes the same θ.
func threshold(top, tol float64) float64 { return max(tol, top*coarse) }

// largest is the largest delta among an IncEval's folded messages.
func largest(msgs []core.VMsg[float64]) float64 {
	top := 0.0
	for _, m := range msgs {
		if m.Val > top {
			top = m.Val
		}
	}
	return top
}

// pevalThreshold is PEval's θ. Where other fragments can send mass in,
// PEval is a bounded local pass like any IncEval, whose largest delta is
// the seed 1-d: the residual it parks merges with the border mass that
// arrives later and is pushed once. A lone fragment receives nothing, so
// it solves to Tol at once, where a coarse pass would cost more work.
func pevalThreshold(f *partition.Fragment, cfg Config) float64 {
	if f.Partitioned().M == 1 {
		return cfg.Tol
	}
	return threshold(1-cfg.Damping, cfg.Tol)
}

// wake sends the fragment a zero delta (Context.Send's self-send) when a
// call — PEval or IncEval — ran at θ > Tol and left some owned delta
// above Tol: the engine runs the fragment again, and when the wake is
// that round's only message, θ = Tol and the fragment converges. Adding
// 0.0 changes no bits, and the message is counted like any other, so the
// run cannot terminate with a residual above Tol.
func wake(ctx *core.Context[float64], f *partition.Fragment, delta []float64, theta, tol float64) {
	if theta == tol {
		return
	}
	for _, x := range delta[:f.NumOwned()] {
		if x > tol {
			ctx.Send(f.Lo, 0)
			return
		}
	}
}
