// Package core implements the AAP (Adaptive Asynchronous Parallel) model
// of Fan et al., SIGMOD 2018, together with the GRAPE PIE programming
// model it parallelizes.
//
// A graph computation is expressed as a Job: a factory for per-fragment
// Programs (PEval + IncEval, Section 2 of the paper), an aggregate
// function f_aggr resolving conflicting updates to the same update
// parameter, and a wire-size function for communication accounting.
//
// The Run function executes a Job over a partitioned graph under a
// configurable parallel model: BSP, AP, SSP and AAP are all instances of
// the same delay-stretch controller (Section 3).
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"aap/internal/codec"
	"aap/internal/par"
	"aap/internal/partition"
)

// VMsg is one entry of a designated message in the paper's terms: the
// value of the update parameter of border vertex V. It carries neither
// the round nor the sender: f_aggr is commutative and associative, so a
// fold cannot use either, and the batch that carries a message names its
// sender once for all of them.
type VMsg[T any] struct {
	V   int32 // global vertex index of the update parameter
	Val T
}

// Program is the per-fragment half of a PIE program. A Program instance
// is created per fragment by Job.New and invoked by a single worker at a
// time, so it may keep unguarded local state (components, heaps, factor
// matrices) across rounds.
type Program[T any] interface {
	// PEval performs partial evaluation on the fragment: it computes the
	// local partial result and sends initial values of update parameters
	// for border vertices through ctx.Send. Like IncEval, it may leave
	// part of the local result for a later round by sending itself a
	// message.
	PEval(ctx *Context[T])

	// IncEval incrementally updates the partial result given the
	// aggregated changes msgs to the fragment's update parameters. msgs
	// holds at most one entry per vertex (the engine folds the buffer
	// B_x̄i with the job's aggregate function first) in ascending vertex
	// order. The slice is scratch the engine reuses on the next round:
	// IncEval may read it freely during the call but must not retain it.
	// IncEval must run to local quiescence: after it returns with no new
	// messages the partial result is a local fixpoint. A program may
	// leave part of that fixpoint for a later round by sending itself a
	// message (Context.Send to an owned vertex), as PageRank's PEval and
	// IncEval do with the residual below the call's threshold. Termination
	// needs no rule for it: the ledger counts that message like any
	// batch, so the run cannot end while it is in flight. Whether to send
	// it must be a pure function of the program's state and msgs, or two
	// runs of one schedule stop agreeing.
	IncEval(msgs []VMsg[T], ctx *Context[T])

	// Get returns the current value for an owned vertex, used by
	// Assemble to collect the global result.
	Get(v int32) T
}

// Snapshotter is the optional fault-tolerance half of a Program: a
// kernel that implements it can participate in Chandy-Lamport
// checkpointing (Options.Checkpoint) and recover from worker failure.
// Programs that don't implement it still run — the engine fails fast
// only when checkpointing is actually requested.
//
// The engine calls both methods at round boundaries only, when the
// kernel's transient worklists (frontiers, buckets, heaps) are empty by
// the IncEval local-quiescence contract, so implementations serialize
// just the durable per-vertex state plus their internal round counters.
type Snapshotter interface {
	// SnapshotState returns the codec-serialized durable state. The
	// engine owns the returned buffer.
	SnapshotState() []byte

	// RestoreState replaces the program's durable state with a
	// previously snapshotted buffer and rebuilds any derived structures
	// (e.g. CC's root→copies index). It may be called on a freshly
	// constructed Program (a replacement for a dead worker) or on a
	// live one being rolled back.
	RestoreState(data []byte) error
}

// Job packages a PIE program for execution by an engine.
type Job[T any] struct {
	// Name identifies the job in reports.
	Name string

	// New creates the Program for one fragment.
	New func(f *partition.Fragment) Program[T]

	// Aggregate is f_aggr: it folds two values destined for the same
	// update parameter into one (e.g. min for CC and SSSP, sum for the
	// PageRank deltas). It must be associative and commutative.
	Aggregate func(a, b T) T

	// Bytes returns the wire size of one value for communication
	// accounting. When nil, 8 bytes per value is assumed.
	Bytes func(T) int

	// Default returns the value reported for vertices never touched by
	// the computation; the zero value of T when nil.
	Default func(v int32) T

	// EncodeVal and DecodeVal give the value type a wire form for the
	// TCP transport plane (Options.Transport): EncodeVal appends val's
	// serialized bytes to dst, DecodeVal reads them back. They must be
	// exact inverses producing byte-stable output, since cross-process
	// runs are pinned bit-identical to in-proc runs. Jobs that leave
	// them nil still run on the in-proc plane; the engine fails fast
	// only when a TCP or remote-worker run actually needs them.
	EncodeVal func(dst []byte, val T) []byte
	DecodeVal func(r *codec.Reader) T

	// Validate, when set, checks the job's preconditions against the
	// partitioned graph (e.g. SSSP's "edge weights must be positive",
	// which the unique-fixpoint argument rests on). Engines call it
	// before constructing any Program and fail fast on error, so a bad
	// input surfaces as a clear error instead of kernels silently
	// diverging. A Session remembers the verdict per job Name (its graph
	// is immutable), so Validate must depend on nothing but p.
	Validate func(p *partition.Partitioned) error
}

// valueBytes returns the accounted wire size of val plus the fixed
// per-message header (the vertex id, 4B).
func (j *Job[T]) valueBytes(val T) int {
	const header = 4
	if j.Bytes == nil {
		return header + 8
	}
	return header + j.Bytes(val)
}

// msgPool recycles message slices between the send side (Context) and
// the receive side (the engine's inbox drain), so steady-state rounds
// ship messages without allocating. A sync.Pool holds pointers, so a
// slice travels in a *[]VMsg box; get hands its emptied box to boxes and
// put takes one from there, which keeps the boxes recycled too.
type msgPool[T any] struct{ full, boxes sync.Pool }

func (mp *msgPool[T]) get() []VMsg[T] {
	if v := mp.full.Get(); v != nil {
		box := v.(*[]VMsg[T])
		s := *box
		*box = nil
		mp.boxes.Put(box)
		return s
	}
	return make([]VMsg[T], 0, 16)
}

func (mp *msgPool[T]) put(s []VMsg[T]) {
	if cap(s) == 0 {
		return
	}
	clear(s) // drop pointer payloads so recycled capacity pins nothing
	box, _ := mp.boxes.Get().(*[]VMsg[T])
	if box == nil {
		box = new([]VMsg[T])
	}
	*box = s[:0]
	mp.full.Put(box)
}

// Context is the interface a Program uses to talk to its engine: sending
// designated messages and reporting work for cost accounting. Its
// buffers accumulate the round's messages per destination worker. A
// round runs on one goroutine, the executor that took the worker's
// task, so the buffers have one writer and need no lock.
type Context[T any] struct {
	frag  *partition.Fragment
	part  *partition.Partitioned
	round int32

	out  [][]VMsg[T] // this round's messages, per destination worker
	work int64       // this round's reported work
	// spare is the recycled outer array handed back through ReleaseOut.
	spare [][]VMsg[T]

	pool *msgPool[T]
}

func newContext[T any](f *partition.Fragment, m int, pool *msgPool[T]) *Context[T] {
	return &Context[T]{
		frag: f,
		part: f.Partitioned(),
		out:  make([][]VMsg[T], m),
		pool: pool,
	}
}

// Fragment returns the fragment the program runs on.
func (c *Context[T]) Fragment() *partition.Fragment { return c.frag }

// Round returns the current round number (0 for PEval).
func (c *Context[T]) Round() int32 { return c.round }

// push appends one message to destination j's buffer, drawing a
// recycled slice from the pool on the first send of the round.
func (c *Context[T]) push(j int, m VMsg[T]) {
	if c.out[j] == nil {
		c.out[j] = c.pool.get()
	}
	c.out[j] = append(c.out[j], m)
}

// Send ships the value of update parameter v to the worker owning v. It
// corresponds to including v in the designated message M(i, j) of the
// current round. Sending to the local fragment is allowed and delivered
// through the local buffer like any other message; a program uses it to
// wake itself for work it left for a later round (Program.IncEval). The
// ledger counts a self-send like any batch, so termination waits for it.
func (c *Context[T]) Send(v int32, val T) {
	c.push(c.part.Owner(v), VMsg[T]{V: v, Val: val})
}

// SendToHolders ships val to every fragment holding a copy of owned
// vertex v (the owner-to-copies direction used by collaborative
// filtering, routed through the index I_i). I_i is read off the
// fragments' F.O bitmaps, in ascending fragment id.
func (c *Context[T]) SendToHolders(v int32, val T) {
	for j, f := range c.part.Frags {
		if j != c.frag.ID && f.OutSlot(v) >= 0 {
			c.push(j, VMsg[T]{V: v, Val: val})
		}
	}
}

// AddWork reports n units of work (vertices touched, edges relaxed) for
// the cost model and the stale-computation metric.
func (c *Context[T]) AddWork(n int) { c.work += int64(n) }

// NewEngineContext, TakeOut and ReleaseOut expose the context plumbing
// to code that drives a kernel without an engine (the kernel tests and
// benchmarks); they are not part of the programming API.
func NewEngineContext[T any](f *partition.Fragment, m int) *Context[T] {
	return newContext[T](f, m, &msgPool[T]{})
}

// ReleaseOut hands an outer array obtained from TakeOut back for reuse
// by the next round. The caller must be done reading the array itself
// (the message slices it pointed to remain owned by their receivers).
func (c *Context[T]) ReleaseOut(out [][]VMsg[T]) {
	clear(out)
	c.spare = out
}

// TakeOut returns and clears the per-destination message lists and the
// accumulated work of the finished round.
func (c *Context[T]) TakeOut() ([][]VMsg[T], int64) {
	out := c.out
	if c.spare != nil {
		c.out = c.spare
		c.spare = nil
	} else {
		c.out = make([][]VMsg[T], len(out))
	}
	w := c.work
	c.work = 0
	return out, w
}

// FoldMessages folds a message buffer with the aggregate function,
// producing at most one message per vertex, in ascending vertex order
// (so IncEval sees a deterministic input regardless of arrival order).
//
// FoldMessages is the map-based reference fold: it handles messages for
// any vertex, at the cost of a map plus an output allocation per call.
// The engine folds with a Folder, which the differential tests verify
// bit-identical against it.
func FoldMessages[T any](buf []VMsg[T], agg func(a, b T) T) []VMsg[T] {
	if len(buf) == 0 {
		return nil
	}
	byV := make(map[int32]VMsg[T], len(buf))
	for _, m := range buf {
		if cur, ok := byV[m.V]; ok {
			cur.Val = agg(cur.Val, m.Val)
			byV[m.V] = cur
		} else {
			byV[m.V] = m
		}
	}
	out := make([]VMsg[T], 0, len(byV))
	for _, m := range byV {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
	return out
}

// Folder folds message buffers for one fragment without allocating and
// without sorting: each message folds in O(1) into an accumulator found
// through a bitmap over the fragment's slots, and the result is emitted
// by scanning that bitmap word by word. The bitmap is laid out in vertex
// order — F.O copies below Lo, then the owned range, then copies from Hi
// up — so the scan yields ascending vertex ids, O(slots/64 + |buf|) in
// all, and leaves the bitmap clear for the next round. A Folder is
// owned by a single worker; it is not safe for concurrent use, and the
// returned slice is only valid until the next Fold call.
type Folder[T any] struct {
	frag  *partition.Fragment
	owned int32    // NumOwned: slots from here up are F.O copies
	below int32    // F.O copies with an id below Lo
	seen  []uint64 // bitmap over vertex-order ranks; all zero between Folds
	pos   []int32  // rank -> index into acc, valid while the rank's bit is set
	acc   []VMsg[T]
	out   []VMsg[T]
}

// NewFolder returns a Folder with scratch sized by f's slot count.
func NewFolder[T any](f *partition.Fragment) *Folder[T] {
	n := f.Slots()
	return &Folder[T]{
		frag:  f,
		owned: int32(f.NumOwned()),
		below: int32(sort.Search(len(f.Out), func(i int) bool { return f.Out[i] >= f.Lo })),
		seen:  make([]uint64, par.Words(n)),
		pos:   make([]int32, n),
	}
}

// rank maps a slot to the position of its vertex among the fragment's
// slots in ascending vertex order.
func (fd *Folder[T]) rank(slot int32) int32 {
	if slot < fd.owned {
		return fd.below + slot
	}
	if c := slot - fd.owned; c < fd.below {
		return c
	}
	return slot
}

// Fold folds buf exactly like FoldMessages, reusing the Folder's
// scratch. The result is overwritten by the next Fold call. Send and
// SendToHolders route a message only to a worker that owns its vertex or
// holds a copy, so one for a vertex without a local slot can only come
// from a corrupt frame: it fails the fold, and the Folder stays usable.
// The error names the vertex and the fragment; the engine, which knows
// the batches the buffer came in, adds the sender.
func (fd *Folder[T]) Fold(buf []VMsg[T], agg func(a, b T) T) ([]VMsg[T], error) {
	if len(buf) == 0 {
		return nil, nil
	}
	acc := fd.acc[:0]
	for _, m := range buf {
		slot := fd.frag.Slot(m.V)
		if slot < 0 {
			clear(fd.seen)
			return nil, fmt.Errorf("core: message for vertex %d, which fragment %d neither owns nor copies", m.V, fd.frag.ID)
		}
		r := fd.rank(slot)
		w, bit := r>>6, uint64(1)<<(uint(r)&63)
		if fd.seen[w]&bit == 0 {
			fd.seen[w] |= bit
			fd.pos[r] = int32(len(acc))
			acc = append(acc, m)
			continue
		}
		e := &acc[fd.pos[r]]
		e.Val = agg(e.Val, m.Val)
	}
	out := slices.Grow(fd.out[:0], len(acc))
	for w, word := range fd.seen {
		if word == 0 {
			continue
		}
		fd.seen[w] = 0
		for ; word != 0; word &= word - 1 {
			out = append(out, acc[fd.pos[w<<6+bits.TrailingZeros64(word)]])
		}
	}
	fd.acc, fd.out = acc, out
	return out, nil
}

// Result is the outcome of running a Job: the assembled per-vertex values
// (indexed by global vertex) and the run statistics.
type Result[T any] struct {
	Values []T
	Stats  RunStats
}

// Assemble collects owned values from every program into a global vector,
// the default Assemble of the paper's PIE programs (taking the union of
// partial results).
func Assemble[T any](p *partition.Partitioned, progs []Program[T]) []T {
	values := make([]T, p.G.NumVertices()) // the fragment ranges cover every vertex
	for i, f := range p.Frags {
		for v := f.Lo; v < f.Hi; v++ {
			values[v] = progs[i].Get(v)
		}
	}
	return values
}
