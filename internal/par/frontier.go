// Frontier/worklist primitives for the intra-fragment parallel compute
// plane: a frontier that is a bitmap, work-balanced chunking of item
// lists for edge-range sweeps over CSR rows, and the atomic-min hooks
// the kernels relax with.
//
// The contract every kernel built on these primitives relies on:
//
//   - The frontier's bitmap dedups its adds, so a slot enters the next
//     frontier at most once per round regardless of how many shards
//     discover it.
//   - Advance scans the bitmap and emits ascending slot order, which is
//     independent of the shard count that staged it.
//   - The atomic mins are exact (they install one of their operands, no
//     arithmetic), so min-fixpoint kernels (SSSP, CC) converge to the
//     same bits under any interleaving.
package par

import (
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
)

// kernelGrainEdges is the per-shard work floor of an intra-fragment
// kernel round: below it, goroutine fan-out costs more than the sweep.
const kernelGrainEdges = 1 << 14

// Kernel returns the shard count for an intra-fragment kernel pass over
// `work` units (edges to scan, contributions to apply). It respects
// Override like every other fan-out decision in the repository.
func Kernel(work int64) int { return Procs(work, kernelGrainEdges) }

// BelowKernelGrain reports whether `work` units are too few for Kernel
// to ever shard, on any machine. A choice between a sequential and a
// sharded algorithm keys on this — a property of the input — rather
// than on Kernel's answer, which is also 1 whenever there is one core.
func BelowKernelGrain(work int64) bool { return work < kernelGrainEdges }

// KernelShare is Kernel for a caller entitled to one `sharers`-th of the
// cores because that many callers are computing at once: the shard
// count is capped at GOMAXPROCS/sharers (at least 1), so that callers ×
// shards stays within the machine. A forced count (Override) is not
// capped.
func KernelShare(work int64, sharers int) int {
	k := Kernel(work)
	if sharers > 1 && Override == 0 {
		k = min(k, max(1, runtime.GOMAXPROCS(0)/sharers))
	}
	return k
}

// Marks is a generation-stamped membership set over [0, n): Reset clears
// it in O(1) by bumping the generation, and TryMark is an atomic
// test-and-set so concurrent markers agree on a single winner. It
// replaces a per-round []bool + clear loop on kernel hot paths.
type Marks struct {
	gen []atomic.Uint32
	cur uint32
}

// NewMarks returns an empty mark set over [0, n).
func NewMarks(n int) *Marks {
	return &Marks{gen: make([]atomic.Uint32, n), cur: 1}
}

// Len returns the domain size.
func (m *Marks) Len() int { return len(m.gen) }

// Reset unmarks everything in O(1). Not safe concurrently with the
// other methods: call it between parallel phases.
func (m *Marks) Reset() {
	m.cur++
	if m.cur == 0 { // generation wrapped: invalidate every stamp
		for i := range m.gen {
			m.gen[i].Store(0)
		}
		m.cur = 1
	}
}

// TryMark marks i and reports whether this call was the first to do so
// since the last Reset. Safe for concurrent use.
func (m *Marks) TryMark(i int32) bool {
	g := &m.gen[i]
	for {
		old := g.Load()
		if old == m.cur {
			return false
		}
		if g.CompareAndSwap(old, m.cur) {
			return true
		}
	}
}

// Marked reports whether i is marked.
func (m *Marks) Marked(i int32) bool { return m.gen[i].Load() == m.cur }

// Unmark clears i. cur is always >= 1, so cur-1 is a valid "stale"
// stamp.
func (m *Marks) Unmark(i int32) { m.gen[i].Store(m.cur - 1) }

// Frontier is a worklist over dense int32 slots that is a bitmap: bit v
// set ⇔ v is staged for the next round. During a round discoveries are
// staged one of two ways, never mixed within a phase:
//
//   - Add, from any goroutine for any slot: an atomic test-and-set.
//   - AddOwned, from the one goroutine that owns the slot's whole
//     64-slot bitmap word (see SnapChunks): a plain OR.
//
// Advance reads the bitmap, so it surfaces slots staged either way, in
// ascending order. That is why the bitmap is a plain []uint64 rather
// than []atomic.Uint64: it is written atomically in one kind of phase
// and plainly in another, with Do's barrier in between.
type Frontier struct {
	bits []uint64
	cur  []int32
}

// NewFrontier returns an empty frontier over slots [0, n).
func NewFrontier(n int) *Frontier {
	return &Frontier{bits: make([]uint64, Words(n))}
}

// Words returns the number of 64-slot bitmap words covering [0, n).
func Words(n int) int { return (n + 63) >> 6 }

// Add stages slot v for the next round and reports whether v was newly
// staged. Safe for concurrent calls on any slots.
//
// The test-and-set is a compare-and-swap loop, not the value-returning
// atomic.OrUint64 it amounts to: go1.24.0 on amd64 lowers that call to
// a CMPXCHG loop whose scratch register it may also pick to park a live
// value across the loop, and inlined into a kernel's message loop it
// did — the receiver came back as the OR-ed word.
func (f *Frontier) Add(v int32) bool {
	word, mask := &f.bits[v>>6], uint64(1)<<(v&63)
	for {
		old := atomic.LoadUint64(word)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(word, old, old|mask) {
			return true
		}
	}
}

// AddOwned stages slot v for the next Advance when stage is true, and
// does nothing when it is false. The caller must be the only
// writer of v's 64-slot word during the phase: a sequential pass, or
// the shard of a k-shard phase whose slot range holds the word whole
// (SnapChunks with shift >= 6). The admission test
// is an argument rather than the caller's branch because on a kernel's
// push path it is data-dependent and mispredicts: OR-ing the condition
// in costs the same whether or not the slot is admitted, or was already.
func (f *Frontier) AddOwned(v int32, stage bool) {
	var bit uint64
	if stage {
		bit = 1
	}
	f.bits[v>>6] |= bit << (v & 63)
}

// Advance returns the staged set as the new frontier and clears the
// bitmap. The bitmap is scanned in word order, so the frontier is in
// ascending slot order — canonical, independent of the shard count that
// staged it, the ordering contract deterministic-sum kernels (PageRank)
// and canonical message order (CC) need — in O(n/64 + |frontier|) with
// no comparison sort. The returned slice is reused by the next Advance.
// Not safe concurrently with the adders.
func (f *Frontier) Advance() []int32 {
	f.cur = f.cur[:0]
	for i, word := range f.bits {
		if word == 0 {
			continue
		}
		f.bits[i] = 0
		base := int32(i << 6)
		for ; word != 0; word &= word - 1 {
			f.cur = append(f.cur, base+int32(bits.TrailingZeros64(word)))
		}
	}
	return f.cur
}

// ChunksByWork splits items into at most p contiguous chunks of
// near-equal total weight and returns the chunk boundaries b
// (b[0] = 0, b[len(b)-1] = len(items), len(b) = p+1; empty chunks are
// possible under extreme skew). total is the sum of weight over items —
// every caller has it in hand from picking p — so a single chunk is
// planned without reading a weight. buf is reused when it has capacity,
// so steady-state rounds plan their sweep without allocating. weight
// must be non-negative.
func ChunksByWork(items []int32, p int, total int64, buf []int, weight func(int32) int64) []int {
	b := buf[:0]
	b = append(b, 0)
	if p < 1 {
		p = 1
	}
	if p == 1 || total == 0 {
		for len(b) < p+1 {
			b = append(b, len(items))
		}
		return b
	}
	var cum int64
	j := 1
	for i, it := range items {
		cum += weight(it)
		// Place boundary j after item i once the running weight crosses
		// j/p of the total; several boundaries may collapse onto one
		// index when a single item dominates.
		for j < p && cum*int64(p) >= total*int64(j) {
			b = append(b, i+1)
			j++
		}
	}
	for len(b) < p+1 {
		b = append(b, len(items))
	}
	return b
}

// SnapChunks moves the interior boundaries of b (as ChunksByWork returns
// them, over ascending items) forward until no boundary falls inside a
// group of items sharing item>>shift: each chunk then holds whole
// groups, so shards that write per-slot state of their own groups only
// — and, with shift >= 6, the bitmap words over them (AddOwned) — write
// disjoint memory. A chunk may come out empty.
func SnapChunks(items []int32, b []int, shift uint) {
	for j := 1; j < len(b)-1; j++ {
		i := max(b[j], b[j-1])
		for i > 0 && i < len(items) && items[i]>>shift == items[i-1]>>shift {
			i++
		}
		b[j] = i
	}
}

// MinInt64 atomically lowers *a to v and reports whether it decreased.
func MinInt64(a *atomic.Int64, v int64) bool {
	for {
		old := a.Load()
		if old <= v {
			return false
		}
		if a.CompareAndSwap(old, v) {
			return true
		}
	}
}

// MinInt32 atomically lowers *a to v and reports whether it decreased.
func MinInt32(a *atomic.Int32, v int32) bool {
	for {
		old := a.Load()
		if old <= v {
			return false
		}
		if a.CompareAndSwap(old, v) {
			return true
		}
	}
}

// MinFloat64Bits atomically lowers the float64 stored as bits in *a to
// v and reports whether it decreased. The min is exact — it installs
// v's bits, no arithmetic — so concurrent relaxations settle on the
// same value any sequential order would.
func MinFloat64Bits(a *atomic.Uint64, v float64) bool {
	nb := math.Float64bits(v)
	for {
		ob := a.Load()
		if math.Float64frombits(ob) <= v {
			return false
		}
		if a.CompareAndSwap(ob, nb) {
			return true
		}
	}
}
