// Rank-bitmap slot tables: the owned contiguous range of a fragment
// maps to local slots arithmetically (v - Lo), and the F.O copy set is
// one bitmap over the global vertex range with a running rank per
// 64-vertex word. A copy's slot is one 16-byte load plus a popcount —
// no hashing, no probing — and the table is n/4 bytes per fragment
// whatever |F.O| is, small enough to stay cache-resident next to the
// kernel's own state. computeBorders builds it straight from the F.O
// bitset it already holds, and keeps no other copy of F.O: the bits are
// the set itself (Fragment.Copies walks them), and the routing index
// I_i: the fragments holding a copy of v are those whose table has v's
// bit.
package partition

import (
	"iter"
	"math/bits"
)

// rankWord covers 64 consecutive global vertices: bits marks the ones
// in F.O, base is the slot of the lowest marked vertex in the word
// (NumOwned plus the F.O members in all lower words).
type rankWord struct {
	bits uint64
	base int32
}

// newRankWords builds the table from a fragment's F.O bitset and
// returns it with |F.O|; copies number from base in ascending vertex
// order, the order Fragment.Copies walks them in.
func newRankWords(out []uint64, base int32) ([]rankWord, int32) {
	t := make([]rankWord, len(out))
	n := int32(0)
	for i, w := range out {
		t[i] = rankWord{bits: w, base: base + n}
		n += int32(bits.OnesCount64(w))
	}
	return t, n
}

// SlotTableBytes reports the resident size of the per-fragment slot
// mappings alone: M tables of ⌈n/64⌉ 16-byte words.
func (p *Partitioned) SlotTableBytes() int64 {
	var total int64
	for _, f := range p.Frags {
		total += int64(len(f.copySlots)) * 16
	}
	return total
}

// RoutingTableBytes reports the resident size of all routing
// structures: the coarse owner index (8 bytes a bucket, at most
// maxOwnerBuckets of them) plus SlotTableBytes. These are the only ones:
// the owner of a vertex is read off Ranges through the index, and the
// routing index I_i and F.O itself off the slot tables' bitmaps.
func (p *Partitioned) RoutingTableBytes() int64 {
	return int64(len(p.coarse))*8 + p.SlotTableBytes()
}

// CopyMarks is a set of one fragment's F.O copies, marked by vertex id:
// SSSP marks the copies a round improved and drains them once a round.
// It holds one bit per vertex of the graph (n/8 bytes) and one per 64
// vertices, which marks the words holding a mark, so a drain reads
// n/4096 words plus the marked ones, and takes each copy's slot from the
// rank word of the word it is on. It has one writer.
type CopyMarks struct {
	f     *Fragment
	bits  []uint64
	words []uint64 // bit w set ⇔ bits[w] is nonzero
}

// NewCopyMarks returns an empty set of f's copies.
func (f *Fragment) NewCopyMarks() *CopyMarks {
	w := len(f.copySlots)
	return &CopyMarks{f: f, bits: make([]uint64, w), words: make([]uint64, (w+63)/64)}
}

// Add marks copy v, a member of F.O.
func (m *CopyMarks) Add(v int32) {
	m.bits[v>>6] |= 1 << (v & 63)
	m.words[v>>12] |= 1 << ((v >> 6) & 63)
}

// Drain yields the marked copies as (slot, vertex) pairs in ascending
// vertex order, which is ascending slot order, each once, and clears
// them; a loop that stops early leaves the marks it did not reach.
func (m *CopyMarks) Drain() iter.Seq2[int32, int32] {
	return func(yield func(slot, v int32) bool) {
		for j, marked := range m.words {
			for ; marked != 0; marked &= marked - 1 {
				i := j<<6 + bits.TrailingZeros64(marked)
				word, e := m.bits[i], m.f.copySlots[i]
				for ; word != 0; word &= word - 1 {
					low := word & -word
					if !yield(e.base+int32(bits.OnesCount64(e.bits&(low-1))), int32(i<<6+bits.TrailingZeros64(word))) {
						if m.bits[i] = word &^ low; m.bits[i] == 0 {
							marked &= marked - 1 // word i holds no mark now
						}
						m.words[j] = marked
						return
					}
				}
				m.bits[i] = 0
			}
			m.words[j] = 0
		}
	}
}
