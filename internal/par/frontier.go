// Frontier: the bitmap worklist the kernels stage their next round in.
//
// The contract the kernels built on it rely on:
//
//   - The bitmap dedups its adds, so a slot enters the next frontier at
//     most once per round however often it is discovered.
//   - Advance scans the bitmap and emits ascending slot order.
package par

import "math/bits"

// Frontier is a worklist over dense int32 slots that is a bitmap: bit v
// set ⇔ v is staged for the next round. It has one writer, the
// goroutine running the kernel's round.
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

// Add stages slot v for the next Advance when stage is true, and does
// nothing when it is false. The admission test is an argument rather
// than the caller's branch because on a kernel's push path it is
// data-dependent and mispredicts: OR-ing the condition in costs the same
// whether or not the slot is admitted, or was already.
func (f *Frontier) Add(v int32, stage bool) {
	var bit uint64
	if stage {
		bit = 1
	}
	f.bits[v>>6] |= bit << (v & 63)
}

// Advance returns the staged set as the new frontier and clears the
// bitmap. The bitmap is scanned in word order, so the frontier is in
// ascending slot order — the canonical order deterministic-sum kernels
// (PageRank) and canonical message order (SSSP's border flush) need —
// in O(n/64 + |frontier|) with no comparison sort. The returned slice is
// reused by the next Advance.
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
