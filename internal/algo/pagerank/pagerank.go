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
// at once — Gauss–Seidel over the fragment. A share for an owned slot
// lands in delta immediately and admits the slot, so the later slots of
// the same sweep fold it in and push it on (on a lattice that halves the
// sweeps: the spectral radius of Gauss–Seidel is the square of
// Jacobi's); a share for an F.O copy goes into the copy's delta, which
// nothing reads before the flush. A round runs on one goroutine, so
// every slot sees one addition sequence: Job is bit-identical to RefJob,
// the plain-loop statement of the same rule.
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
// do about the work of one fragment's PEval (104 M units); re-converging
// to Tol on every call did 1.8–2.2× that, and a PEval to Tol followed by
// coarse-to-fine IncEvals about 1.2×. A run still ends with every owned
// residual at most Tol, the bound Config.Tol documents.
package pagerank

import (
	"math"

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

// program is the kernel.
type program struct {
	f   *partition.Fragment
	cfg Config

	score []float64
	delta []float64
	theta float64 // this call's propagation threshold θ

	// fr is the worklist of owned slots admitted above θ; its ordered
	// Advance at each round start makes the consume order canonical.
	fr     *par.Frontier
	rounds int
}

func newProgram(f *partition.Fragment, cfg Config) *program {
	n := f.Slots()
	return &program{
		f: f, cfg: cfg,
		score: make([]float64, n),
		delta: make([]float64, n),
		fr:    par.NewFrontier(f.NumOwned()),
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

// IncEval folds incoming delta sums into owned vertices (the folded
// message list is already in canonical vertex order), admits every owned
// slot above θ (threshold) and resumes the rounds at θ; residual left
// between Tol and θ wakes the fragment again.
func (p *program) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	p.theta = threshold(largest(msgs), p.cfg.Tol)
	for _, m := range msgs {
		if s := p.f.Slot(m.V); s >= 0 {
			p.delta[s] += m.Val
		}
	}
	for s, x := range p.delta[:p.f.NumOwned()] {
		p.fr.Add(int32(s), x > p.theta)
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
// crossing θ to the frontier.
func (p *program) add(s int32, d float64) {
	p.delta[s] += d
	if s < int32(p.f.NumOwned()) {
		p.fr.Add(s, p.delta[s] > p.theta)
	}
}

// run executes rounds until the frontier drains. A round is a sweep
// that consumes the frontier in ascending order, each slot pushing at
// once.
//
// Advance clears the dedup bitmap before any slot is consumed, so a slot
// that an earlier slot re-admits before its own turn is consumed in this
// sweep and listed again in the next, which skips it.
func (p *program) run(ctx *core.Context[float64]) {
	for {
		frontier := p.fr.Advance()
		if len(frontier) == 0 {
			return
		}
		p.rounds++
		ctx.AddWork(int(p.sweep(frontier)))
	}
}

// sweep consumes the frontier and returns its work units: every share
// goes into its slot's delta, and an owned slot crossing θ is admitted.
func (p *program) sweep(frontier []int32) (units int64) {
	g, owned, tol := p.f.Graph(), int32(p.f.NumOwned()), p.theta
	for _, s := range frontier {
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
		for _, u := range out {
			us := p.f.Slot(u)
			switch {
			case us < 0:
			case us < owned:
				y := p.delta[us] + share
				p.delta[us] = y
				p.fr.Add(us, y > tol)
			default:
				p.delta[us] += share
			}
		}
	}
	return units
}

// flush ships the accumulated copy deltas to their owners and resets
// them.
func (p *program) flush(ctx *core.Context[float64]) {
	for s, v := range p.f.Copies() {
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
// the seed or the folded messages, so both kernels compute the same θ.
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
