package pagerank

// The retained PageRank kernel: the pinned reference of the
// differential tests. It states the round rule of pagerank.go in plain
// loops — sort the frontier, consume it in slot order, each consumed
// slot pushing at once — with a sorted list and a flag per slot where
// the kernel uses a bitmap, so the kernel must reproduce it bit for bit.

import (
	"slices"

	"aap/internal/core"
	"aap/internal/partition"
)

// refProgram holds per-slot scores and pending deltas. Copies (F.O
// slots) only accumulate deltas destined for other fragments.
type refProgram struct {
	f   *partition.Fragment
	cfg Config

	score    []float64
	delta    []float64
	theta    float64 // this call's propagation threshold θ
	inQ      []bool
	frontier []int32 // owned slots admitted above θ, sorted, consumed per round
	next     []int32
	rounds   int
}

func newRefProgram(f *partition.Fragment, cfg Config) *refProgram {
	n := f.Slots()
	return &refProgram{
		f: f, cfg: cfg,
		score: make([]float64, n),
		delta: make([]float64, n),
		inQ:   make([]bool, f.NumOwned()),
	}
}

// KernelRounds reports frontier rounds executed so far.
func (p *refProgram) KernelRounds() int { return p.rounds }

// PEval seeds every owned vertex with the teleport mass 1-d and runs
// rounds at pevalThreshold; accumulated copy deltas are shipped to their
// owners, and residual left between Tol and θ wakes the fragment again.
func (p *refProgram) PEval(ctx *core.Context[float64]) {
	p.theta = pevalThreshold(p.f, p.cfg)
	seed := 1 - p.cfg.Damping
	for s := int32(0); s < int32(p.f.NumOwned()); s++ {
		p.add(s, seed)
	}
	p.run(ctx)
	p.flush(ctx)
	wake(ctx, p.f, p.delta, p.theta, p.cfg.Tol)
}

// IncEval folds incoming delta sums into owned vertices, admits every
// owned slot above θ (threshold) — parked residual included — and
// resumes the rounds at θ; residual left between Tol and θ wakes the
// fragment again.
func (p *refProgram) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	p.theta = threshold(largest(msgs), p.cfg.Tol)
	for _, m := range msgs {
		if s := p.f.Slot(m.V); s >= 0 {
			p.delta[s] += m.Val
		}
	}
	for s := range int32(p.f.NumOwned()) {
		p.admit(s)
	}
	p.run(ctx)
	p.flush(ctx)
	wake(ctx, p.f, p.delta, p.theta, p.cfg.Tol)
}

// Get returns the score of owned vertex v including its parked residual,
// which tightens the result by the sub-threshold mass.
func (p *refProgram) Get(v int32) float64 {
	s := p.f.Slot(v)
	return p.score[s] + p.delta[s]
}

// add accumulates a delta on local slot s and admits owned slots to the
// next frontier when their pending mass crosses the propagation
// threshold θ.
func (p *refProgram) add(s int32, d float64) {
	p.delta[s] += d
	if s < int32(p.f.NumOwned()) {
		p.admit(s)
	}
}

// admit lists owned slot s for the next round if its delta is above θ.
func (p *refProgram) admit(s int32) {
	if !p.inQ[s] && p.delta[s] > p.theta {
		p.inQ[s] = true
		p.next = append(p.next, s)
	}
}

// run executes rounds until the frontier drains. Admission marks (inQ)
// are cleared before the sweep, so a slot an earlier slot re-admits
// before its own turn is consumed now and listed again next round, where
// it is skipped unless it is above θ again by then.
func (p *refProgram) run(ctx *core.Context[float64]) {
	owned := int32(p.f.NumOwned())
	for len(p.next) > 0 {
		p.rounds++
		p.frontier = append(p.frontier[:0], p.next...)
		p.next = p.next[:0]
		slices.Sort(p.frontier)
		for _, s := range p.frontier {
			p.inQ[s] = false
		}
		var work int
		for _, s := range p.frontier {
			x := p.delta[s]
			if !(x > p.theta) {
				continue
			}
			p.delta[s] = 0
			p.score[s] += x
			out := p.f.Graph().Out(p.f.Lo + s)
			work += len(out) + 1
			if len(out) == 0 {
				continue
			}
			share := p.cfg.Damping * x / float64(len(out))
			for _, u := range out {
				us := p.f.Slot(u)
				switch {
				case us < 0:
				case us < owned:
					p.add(us, share)
				default:
					p.delta[us] += share
				}
			}
		}
		ctx.AddWork(work)
	}
}

// flush ships the accumulated copy deltas to their owners and resets
// them.
func (p *refProgram) flush(ctx *core.Context[float64]) {
	for s, v := range p.f.Copies() {
		if p.delta[s] > 0 {
			ctx.Send(v, p.delta[s])
			p.delta[s] = 0
		}
	}
}
