// Package vcentric runs vertex-centric programs — the model of the
// systems the paper compares against in Table 1 — as PIE jobs on
// internal/core, the simulation the paper's expressiveness result
// describes: Job compiles a vertex Program into a fragment program, and
// the engine's modes supply the baselines' schedules. core.BSP is the
// synchronous superstep engine (Pregel/Giraph, GraphLab-sync), core.AP
// the asynchronous one with immediate message visibility
// (GraphLab-async and, with delta-accumulative programs, Maiter),
// core.Hsync the hybrid that switches between the two (PowerSwitch).
//
// Unlike the fragment-centric programs of internal/algo, programs here
// compute one vertex at a time, messages are generated per edge
// (combined only at the destination), and no sequential-algorithm
// optimizations (priority queues, union-find, incremental fragment
// evaluation) are available — the cost profile the paper attributes the
// Table 1 gaps to. Both sides run on the one engine, so that gap is
// the programming model's, not an implementation's.
package vcentric

import (
	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// Program is a vertex program over float64 vertex values, the common
// denominator of the Table 1 workloads (distances, component ids, rank
// deltas).
type Program interface {
	// Init returns the initial value of vertex v and whether v is active
	// in the initial superstep.
	Init(g *graph.Graph, v int32) (val float64, active bool)
	// Compute updates an active vertex. msg is the combined incoming
	// message; initial marks the activation pass, where msg is
	// meaningless. It returns the new value, the basis handed to Message
	// for outgoing edges (the new distance for SSSP, the delta for
	// accumulative PageRank), and whether to notify out-neighbors.
	Compute(g *graph.Graph, v int32, val, msg float64, initial bool) (newVal, out float64, send bool)
	// Message returns the value sent to neighbor u over an edge of
	// weight w, given the out basis returned by Compute.
	Message(g *graph.Graph, v, u int32, w, out float64) float64
	// Combine folds two messages for the same destination; it must be
	// associative and commutative.
	Combine(a, b float64) float64
	// Finalize maps the converged internal value to the reported value.
	Finalize(g *graph.Graph, v int32, val float64) float64
}

// Job compiles prog into a PIE program: PEval is the activation
// superstep over the fragment's owned vertices, IncEval one Compute per
// vertex with a combined message, f_aggr is Combine. Every out-edge of a
// notifying vertex costs one designated message, edges inside the
// fragment included — a vertex program has no fragment to evaluate
// locally — so RunStats.TotalMsgs counts per-edge messages before
// combining, 16 accounted bytes each (8 of value, 8 of header).
func Job(prog Program) core.Job[float64] {
	return core.Job[float64]{
		Name: "vcentric",
		New: func(f *partition.Fragment) core.Program[float64] {
			return &fragment{prog: prog, g: f.Graph(), lo: f.Lo, vals: make([]float64, f.NumOwned())}
		},
		Aggregate: prog.Combine,
		EncodeVal: codec.AppendFloat64,
		DecodeVal: (*codec.Reader).Float64,
	}
}

// fragment holds the values of one fragment's owned vertices.
type fragment struct {
	prog Program
	g    *graph.Graph
	lo   int32
	vals []float64
}

// PEval implements core.Program.
func (f *fragment) PEval(ctx *core.Context[float64]) {
	for i := range f.vals {
		v := f.lo + int32(i)
		val, active := f.prog.Init(f.g, v)
		f.vals[i] = val
		if active {
			f.compute(ctx, v, 0, true)
		}
	}
}

// IncEval implements core.Program.
func (f *fragment) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	for _, m := range msgs {
		f.compute(ctx, m.V, m.Val, false)
	}
}

// Get implements core.Program.
func (f *fragment) Get(v int32) float64 { return f.prog.Finalize(f.g, v, f.vals[v-f.lo]) }

// compute runs Compute for owned vertex v and sends one message per
// out-edge when it notifies. The reported work, one unit per Compute and
// one per message generated, is what the simulator prices.
func (f *fragment) compute(ctx *core.Context[float64], v int32, msg float64, initial bool) {
	val, out, send := f.prog.Compute(f.g, v, f.vals[v-f.lo], msg, initial)
	f.vals[v-f.lo] = val
	work := 1
	if send {
		nbrs, ws := f.g.Out(v), f.g.OutWeights(v)
		for i, u := range nbrs {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			ctx.Send(u, f.prog.Message(f.g, v, u, w, out))
		}
		work += len(nbrs)
	}
	ctx.AddWork(work)
}
