// Rank-bitmap slot tables: the owned contiguous range of a fragment
// maps to local slots arithmetically (v - Lo), and the F.O copy set is
// one bitmap over the global vertex range with a running rank per
// 64-vertex word. A copy's slot is one 16-byte load plus a popcount —
// no hashing, no probing — and the table is n/4 bytes per fragment
// whatever |F.O| is, small enough to stay cache-resident next to the
// kernel's own state. computeBorders builds it straight from the F.O
// bitset it already holds. The same bits are the routing index I_i: the
// fragments holding a copy of v are those whose table has v's bit.
package partition

import "math/bits"

// rankWord covers 64 consecutive global vertices: bits marks the ones
// in F.O, base is the slot of the lowest marked vertex in the word
// (NumOwned plus the F.O members in all lower words).
type rankWord struct {
	bits uint64
	base int32
}

// newRankWords builds the table from a fragment's F.O bitset and
// returns it with |F.O|; copies number from base in ascending vertex
// order, the same numbering as their positions in the sorted Out slice.
func newRankWords(out []uint64, base int32) ([]rankWord, int) {
	t := make([]rankWord, len(out))
	n := 0
	for i, w := range out {
		t[i] = rankWord{bits: w, base: base + int32(n)}
		n += bits.OnesCount64(w)
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
// structures: the coarse owner index (12 bytes a bucket, at most
// maxOwnerBuckets of them) plus SlotTableBytes. These are the only ones:
// the owner of a vertex is read off Ranges through the index, and the
// routing index I_i off the slot tables' F.O bitmaps.
func (p *Partitioned) RoutingTableBytes() int64 {
	return int64(len(p.coarse))*12 + p.SlotTableBytes()
}
