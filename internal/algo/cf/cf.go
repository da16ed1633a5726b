// Package cf is the PIE program for collaborative filtering (Section 5.2
// of the paper): mini-batched stochastic gradient descent for matrix
// factorization. Users are partitioned with their rating edges; product
// vectors are the update parameters, shipped copy-to-owner as weighted
// contributions and owner-to-copies as canonical values. CF is the one
// workload of the paper that requires bounded staleness (run it with
// Options.Staleness > 0).
package cf

import (
	"math"

	"aap/internal/algo/ref"
	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// Val is the status variable (f, δ, t) of Section 5.2 in transit: a
// weighted factor-vector contribution. Vec holds weight-scaled factor
// sums so that folding two Vals is elementwise addition, keeping the
// aggregate function associative and commutative; TS carries the latest
// round stamp.
type Val struct {
	Vec    []float64
	Weight float64
	TS     int32
}

// Mean returns the weighted mean vector of the contribution.
func (v Val) Mean() []float64 {
	out := make([]float64, len(v.Vec))
	if v.Weight == 0 {
		return out
	}
	for i := range out {
		out[i] = v.Vec[i] / v.Weight
	}
	return out
}

// Config parameterizes the CF job.
type Config struct {
	Users, Products int
	Rank            int
	// Epochs bounds how many SGD epochs each worker contributes.
	Epochs int
	Seed   int64
}

// The SGD step: learnRate scales each update and lambda is the L2
// regularization. A worker stops early when its training RMSE improves
// by less than tol between rounds.
const (
	learnRate = 0.05
	lambda    = 0.01
	tol       = 1e-4
)

func (c Config) withDefaults() Config {
	if c.Rank == 0 {
		c.Rank = 8
	}
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	return c
}

// Job builds the CF PIE job over a bipartite rating graph whose users
// have external ids [0, Users) and products [Users, Users+Products).
func Job(cfg Config) core.Job[Val] {
	cfg = cfg.withDefaults()
	return core.Job[Val]{
		Name: "cf",
		New:  func(f *partition.Fragment) core.Program[Val] { return newProgram(f, cfg) },
		Aggregate: func(a, b Val) Val {
			out := Val{Vec: make([]float64, len(a.Vec)), Weight: a.Weight + b.Weight, TS: a.TS}
			if b.TS > out.TS {
				out.TS = b.TS
			}
			for i := range a.Vec {
				out.Vec[i] = a.Vec[i] + b.Vec[i]
			}
			return out
		},
		Bytes: func(v Val) int { return 8*len(v.Vec) + 12 },
		EncodeVal: func(dst []byte, v Val) []byte {
			dst = codec.AppendFloat64s(dst, v.Vec)
			dst = codec.AppendFloat64(dst, v.Weight)
			return codec.AppendInt32(dst, v.TS)
		},
		DecodeVal: func(r *codec.Reader) Val {
			return Val{Vec: r.Float64s(), Weight: r.Float64(), TS: r.Int32()}
		},
	}
}

// edge is one local training rating.
type edge struct {
	u, p int32 // local slots of user and product
	r    float64
}

// program holds the fragment's users, its product slots (owned products
// plus copies), and the local training edges.
type program struct {
	f   *partition.Fragment
	g   *graph.Graph
	cfg Config
	// in is F.I: the owned products with a remote copy, each shipped to
	// its holders every round. The partition does not store it, so it is
	// derived once per program.
	in []int32

	factor [][]float64 // per local slot
	weight []float64   // ratings incident to the slot locally
	edges  []edge

	epochs    int
	lastRMSE  float64
	converged bool
}

func newProgram(f *partition.Fragment, cfg Config) *program {
	n := f.Slots()
	p := &program{f: f, g: f.Graph(), cfg: cfg, in: f.InBorder(),
		factor: make([][]float64, n),
		weight: make([]float64, n),
	}
	g := f.Graph()
	init := func(v int32) {
		s := f.Slot(v)
		if p.factor[s] == nil {
			// Deterministic per-(external id, k) init keeps the starting
			// point independent of partitioning.
			p.factor[s] = ref.DeterministicFactors(1, cfg.Rank, int64(g.IDOf(v))*31+cfg.Seed)[0]
		}
	}
	for v := f.Lo; v < f.Hi; v++ {
		init(v)
		ws := g.OutWeights(v)
		for i, u := range g.Out(v) {
			init(u)
			p.edges = append(p.edges, edge{u: f.Slot(v), p: f.Slot(u), r: ws[i]})
			p.weight[f.Slot(u)]++
		}
	}
	for _, v := range f.Copies() {
		init(v)
	}
	return p
}

// PEval runs the first SGD epoch and ships initial product contributions.
// A fragment with no border (single-fragment runs) can never be triggered
// by messages, so partial evaluation runs its whole epoch budget to local
// convergence, which is the complete answer Q(F) the PIE model expects.
func (p *program) PEval(ctx *core.Context[Val]) {
	p.epoch(ctx)
	if p.f.NumCopies() == 0 && len(p.in) == 0 {
		for !p.converged && p.epochs < p.cfg.Epochs {
			p.epoch(ctx)
		}
		return
	}
	p.ship(ctx)
}

// IncEval folds incoming product contributions, runs another epoch while
// the budget lasts, and ships updates.
func (p *program) IncEval(msgs []core.VMsg[Val], ctx *core.Context[Val]) {
	for _, m := range msgs {
		s := p.f.Slot(m.V)
		if s < 0 || m.Val.Weight == 0 {
			continue
		}
		if p.f.Owns(m.V) {
			// Owner blends remote contributions with its canonical vector,
			// weighting by local rating counts.
			own := p.weight[s] + 1
			tot := own + m.Val.Weight
			for k := range p.factor[s] {
				p.factor[s][k] = (p.factor[s][k]*own + m.Val.Vec[k]) / tot
			}
		} else {
			// Copies adopt the owner's canonical mean, divided in place to
			// avoid materializing the Mean() vector.
			for k := range p.factor[s] {
				p.factor[s][k] = m.Val.Vec[k] / m.Val.Weight
			}
		}
	}
	ctx.AddWork(len(msgs))
	if p.converged || p.epochs >= p.cfg.Epochs {
		return
	}
	p.epoch(ctx)
	p.ship(ctx)
}

// Get returns the factor vector of owned vertex v as a weight-1 Val.
func (p *program) Get(v int32) Val {
	s := p.f.Slot(v)
	if p.factor[s] == nil {
		return Val{Vec: make([]float64, p.cfg.Rank), Weight: 1}
	}
	return Val{Vec: append([]float64(nil), p.factor[s]...), Weight: 1}
}

// epoch performs one pass of SGD over the local training edges.
func (p *program) epoch(ctx *core.Context[Val]) {
	if len(p.edges) == 0 {
		p.converged = true
		return
	}
	var se float64
	for _, e := range p.edges {
		uf, pf := p.factor[e.u], p.factor[e.p]
		pred := ref.Dot(uf, pf)
		err := e.r - pred
		se += err * err
		for k := range uf {
			du := learnRate * (err*pf[k] - lambda*uf[k])
			dp := learnRate * (err*uf[k] - lambda*pf[k])
			uf[k] += du
			pf[k] += dp
		}
	}
	ctx.AddWork(len(p.edges) * p.cfg.Rank)
	rmse := math.Sqrt(se / float64(len(p.edges)))
	if p.epochs > 0 && math.Abs(p.lastRMSE-rmse) < tol {
		p.converged = true
	}
	p.lastRMSE = rmse
	p.epochs++
}

// ship sends copy contributions to product owners and canonical vectors
// from owners to copy holders: the weight-scaled vector of each copy in
// F.O that has local ratings, then the value of each owned product
// with remote copies.
func (p *program) ship(ctx *core.Context[Val]) {
	if p.converged && p.epochs >= p.cfg.Epochs {
		return
	}
	ts := ctx.Round()
	for s, v := range p.f.Copies() {
		wt := p.weight[s]
		if wt == 0 || p.factor[s] == nil {
			continue
		}
		vec := make([]float64, p.cfg.Rank)
		for r := range vec {
			vec[r] = p.factor[s][r] * wt
		}
		ctx.Send(v, Val{Vec: vec, Weight: wt, TS: ts})
	}
	for _, v := range p.in {
		s := p.f.Slot(v)
		if p.factor[s] == nil {
			continue
		}
		vec := append([]float64(nil), p.factor[s]...)
		ctx.SendToHolders(v, Val{Vec: vec, Weight: 1, TS: ts})
	}
}

// Factors extracts user and product factor matrices from an assembled
// result vector (indexed by global vertex of the partitioned graph).
func Factors(p *partition.Partitioned, values []Val, cfg Config) (uf, pf [][]float64) {
	cfg = cfg.withDefaults()
	uf = make([][]float64, cfg.Users)
	pf = make([][]float64, cfg.Products)
	g := p.G
	for v := 0; v < g.NumVertices(); v++ {
		id := int(g.IDOf(int32(v)))
		vec := values[v].Vec
		if vec == nil {
			vec = make([]float64, cfg.Rank)
		}
		if id < cfg.Users {
			uf[id] = vec
		} else {
			pf[id-cfg.Users] = vec
		}
	}
	return uf, pf
}
