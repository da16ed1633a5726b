// Package sssp is the PIE program for single-source shortest paths
// (Section 5.1 of the paper). Two single-source kernels implement the
// same PEval / IncEval semantics:
//
//   - the retained sequential reference (sssp_ref.go): Dijkstra as PEval
//     and Ramalingam-Reps incremental relaxation as IncEval — the oracle
//     of the differential tests, and what a fragment below the sharding
//     grain runs;
//   - the bucketed label-correcting kernel (delta.go): owned vertices
//     wait in distance-range buckets (par.Buckets), the lowest bucket
//     drains first, and a vertex taken from it relaxes all its out-edges
//     across kernel shards with an exact atomic float-min. The bucket
//     width Delta is its one degree of freedom, from Dijkstra order
//     (tiny) to Bellman-Ford frontier order (+Inf, a single bucket).
//
// There is no multi-source kernel: the serving path (internal/serve) runs
// each distinct source of a batch as its own Job, because a sweep shared
// among per-source lanes cost more per scan than it saved in scans on the
// served traffic. There is deliberately no light/heavy edge split and no
// rule that reads the weights to pick a kernel: splitting scans every row
// twice behind an unpredictable branch and saves no relaxations over
// expanding each taken vertex once per distance it is taken at, and
// without it the bucketed kernel at its automatic width beats Dijkstra,
// the split kernel and a plain frontier sweep on low-diameter power-law
// fragments and on high-diameter road fragments alike
// (BenchmarkKernelSSSPDelta), so a dispersion heuristic has nothing
// left to decide.
//
// The kernels are bit-identical by construction: with positive weights
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
	// KernelAuto picks per fragment, by size alone: sequential Dijkstra
	// below the sharding grain, the bucketed kernel otherwise.
	KernelAuto KernelKind = iota
	// KernelRef forces the retained sequential Dijkstra reference.
	KernelRef
)

// Config parameterizes the SSSP job. The zero value (plus a Source) is
// the production configuration: kernel by fragment size, automatic
// shard count, delta from the fragment's mean edge weight.
type Config struct {
	// Source is the external id of the source vertex.
	Source graph.VertexID

	// Shards forces the kernel shard count per round when >= 1
	// (1 exercises the sweeps single-threaded) and with it the bucketed
	// kernel; 0 picks automatically. The differential tests and
	// BenchmarkKernelSSSP force the axis through here.
	Shards int

	// Delta is the bucket width of the bucketed kernel: distances
	// [i*Delta, (i+1)*Delta) share bucket i. Anything but a positive
	// number (0, negative, NaN) means the mean edge weight of the
	// fragment. A tiny Delta approaches Dijkstra ordering (least wasted
	// work, most rounds); +Inf is a single bucket, i.e. the Bellman-Ford
	// frontier order.
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
// scaling axis of the differential tests and benchmarks.
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

// newKernel resolves cfg to a program for fragment f. The choice reads
// the fragment's size and nothing else — not its weights, not the core
// count — so one partition runs the same algorithm on every machine.
func newKernel(f *partition.Fragment, cfg Config) core.Program[float64] {
	small := cfg.Shards == 0 && par.BelowKernelGrain(f.Graph().OutSpan(f.Lo, f.Hi))
	if cfg.Kernel == KernelRef || small {
		// Too small to ever shard: sequential Dijkstra is work-optimal.
		return newRefProgram(f, cfg.Source)
	}
	return newDeltaProgram(f, cfg.Source, cfg.Shards, cfg.Delta)
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
