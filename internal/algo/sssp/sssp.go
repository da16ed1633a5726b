// Package sssp is the PIE program for single-source shortest paths
// (Section 5.1 of the paper). Every Job runs one kernel, the bucketed
// label-correcting sweep (delta.go): owned vertices wait in
// distance-range buckets (par.Buckets), the lowest bucket drains first,
// and a vertex taken from it relaxes all its out-edges with an exact
// min. The bucket width Delta is its one degree of freedom, from
// Dijkstra order (tiny) to Bellman-Ford frontier order (+Inf).
//
// The retained reference (sssp_ref.go, RefJob) — Dijkstra as PEval and
// Ramalingam-Reps incremental relaxation as IncEval — is the oracle of
// the differential tests and nothing else. No fragment falls back to it
// by size: the bucketed kernel runs PEval 1.6–3.7× faster than Dijkstra
// on small fragments (40×40 road, 60×60 grid, 1k-vertex power-law), as
// it does on large ones.
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
// The two kernels are bit-identical by construction: with positive weights
// every candidate distance is the left-to-right sum along one path,
// extending a path never lowers its sum, and min over that candidate set
// is exact — so the fixpoint is unique and independent of relaxation
// order. Bucketing changes only how much work reaching it wastes. The
// differential tests in internal/algo pin this across bucket widths.
// The positivity precondition the argument rests on is enforced by
// ValidateWeights before any kernel runs.
package sssp

import (
	"fmt"
	"math"

	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// Inf is the distance of unreachable vertices.
var Inf = math.Inf(1)

// Config parameterizes the SSSP job. The zero value (plus a Source) is
// the production configuration: delta from the fragment's mean edge
// weight.
type Config struct {
	// Source is the external id of the source vertex.
	Source graph.VertexID

	// Delta is the bucket width of the bucketed kernel: distances
	// [i*Delta, (i+1)*Delta) share bucket i. Anything but a positive
	// number (0, negative, NaN) means the mean edge weight of the
	// fragment. A tiny Delta approaches Dijkstra ordering (least wasted
	// work, most rounds); +Inf is a single bucket, i.e. the Bellman-Ford
	// frontier order.
	Delta float64
}

// Job builds the SSSP PIE job for the given source (an external vertex
// id). Edge weights must be positive and finite — enforced up front by
// ValidateWeights; unweighted edges count as 1. Every fragment, whatever
// its size, runs the bucketed kernel.
func Job(source graph.VertexID) core.Job[float64] {
	return JobConfig(Config{Source: source})
}

// JobConfig builds the SSSP job from an explicit configuration.
func JobConfig(cfg Config) core.Job[float64] {
	return core.Job[float64]{
		Name:     "sssp",
		Validate: ValidateWeights,
		New: func(f *partition.Fragment) core.Program[float64] {
			return newDeltaProgram(f, cfg.Source, cfg.Delta)
		},
		Aggregate: math.Min,
		Bytes:     func(float64) int { return 8 },
		EncodeVal: codec.AppendFloat64,
		DecodeVal: (*codec.Reader).Float64,
	}
}

// RefJob builds the job over the retained sequential Dijkstra kernel —
// the pinned oracle of the differential tests.
func RefJob(source graph.VertexID) core.Job[float64] {
	j := Job(source)
	j.New = func(f *partition.Fragment) core.Program[float64] { return newRefProgram(f, source) }
	return j
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
