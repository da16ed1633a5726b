// Border-set computation as a parallel, map-free edge sweep.
//
// Every cross-fragment edge v→u sets one bit: u in the F.O bitset of
// v's fragment. Setting a bit is idempotent, so the parallel sweep needs only
// atomic OR, and compaction by ascending scan yields the sorted F.O for
// free. F.O is the one stored border set: F.I is derived from it by
// InBorder, and the routing index I_i is read off the fragments' F.O
// bitmaps. A map-based sweep (borders_ref.go) pins F.O, the derived F.I
// and the holder walk in the differential tests of borders_test.go.
package partition

import (
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"aap/internal/par"
)

// bordersShardEdges is the minimum edge span per sweep shard before
// another worker is added.
const bordersShardEdges = 1 << 15

// parFrags runs fn(0..m-1) across min(GOMAXPROCS, m) goroutines.
func parFrags(m int, fn func(i int)) {
	p := par.Procs(int64(m), 1)
	if p > m {
		p = m
	}
	par.Do(p, func(w int) {
		for i := w; i < m; i += p {
			fn(i)
		}
	})
}

// computeBorders fills each fragment's F.O from the renumbered graph and
// builds its copy-slot table.
func (p *Partitioned) computeBorders() {
	n := p.G.NumVertices()
	words := (n + 63) / 64
	// One arena holds the M F.O bitsets; fragment i's is
	// arena[i*words : (i+1)*words].
	arena := make([]uint64, p.M*words)
	bitset := func(frag int) []uint64 { return arena[frag*words : (frag+1)*words] }

	procs := par.Procs(p.G.OutSpan(0, int32(n)), bordersShardEdges)
	vb := p.G.OutShards(procs)
	set := setBitAtomic
	if procs == 1 {
		set = setBit // uncontended sweep skips the atomics
	}
	par.Do(procs, func(w int) {
		p.sweepBorders(vb[w], vb[w+1], arena, words, set)
	})

	// Rank pass: each fragment's copy-slot table, whose running base
	// counts F.O as it goes. The scan is uniform (every fragment owns the
	// same words), so fragment-strided parallelism is balanced here.
	cnts := make([]int, p.M)
	parFrags(p.M, func(i int) {
		f := p.Frags[i]
		f.copySlots, cnts[i] = newRankWords(bitset(i), int32(f.NumOwned()))
	})

	// Compact each bitset into the sorted F.O. Compaction cost is
	// dominated by |F.O|, not the fragment count, so fragments are
	// scheduled largest-first from a shared counter: a single huge-F.O
	// straggler starts immediately while the small fragments pack around
	// it, instead of serializing whatever a fragment-strided split queued
	// behind it.
	order := make([]int, p.M)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if ca, cb := cnts[order[a]], cnts[order[b]]; ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	cprocs := par.Procs(int64(p.M), 1)
	if cprocs > p.M {
		cprocs = p.M
	}
	var nextFrag atomic.Int32
	par.Do(cprocs, func(int) {
		for {
			oi := int(nextFrag.Add(1)) - 1
			if oi >= p.M {
				return
			}
			i := order[oi]
			p.Frags[i].Out = collectBitsN(bitset(i), cnts[i], 0)
		}
	})
}

// sweepBorders marks the F.O bits induced by out-edges of vertices in
// [lo, hi). The sweep walks the fragments along with v, so an edge v→u
// crosses exactly when u falls outside the [Lo, Hi) of v's fragment. set
// is setBit for the single-worker sweep and setBitAtomic for the
// shared-arena parallel sweep; bit-setting is idempotent and
// commutative, so the parallel result is schedule-independent.
func (p *Partitioned) sweepBorders(lo, hi int32, arena []uint64, words int, set func([]uint64, int32)) {
	if lo >= hi {
		return
	}
	fv := p.Owner(lo)
	for v := lo; v < hi; v++ {
		for v >= p.Ranges[fv+1] {
			fv++
		}
		flo, fhi := p.Ranges[fv], p.Ranges[fv+1]
		o := fv * words
		for _, u := range p.G.Out(v) {
			if u < flo || u >= fhi {
				set(arena[o:o+words], u) // v→u crosses fragments: u in F.O of fv
			}
		}
	}
}

// InBorder derives F.I, the owned vertices with an incoming edge from
// another fragment, from the stored F.O sets: u is in F.I of its owner
// exactly when some other fragment holds a copy of it. Each F.O_j is
// sorted, so F.O_j ∩ [Lo, Hi) is one contiguous run found by two binary
// searches; the runs are merged ascending without duplicates through a
// bitset over the owned range. The result is built on every call and
// not kept.
func (f *Fragment) InBorder() []int32 {
	in := make([]uint64, (f.NumOwned()+63)/64)
	cnt := 0
	for _, g := range f.p.Frags {
		lo, _ := slices.BinarySearch(g.Out, f.Lo)
		hi, _ := slices.BinarySearch(g.Out, f.Hi)
		for _, u := range g.Out[lo:hi] {
			w, bit := (u-f.Lo)>>6, uint64(1)<<(uint(u-f.Lo)&63)
			if in[w]&bit == 0 {
				in[w] |= bit
				cnt++
			}
		}
	}
	return collectBitsN(in, cnt, f.Lo)
}

func setBit(ws []uint64, v int32) {
	ws[v>>6] |= 1 << (uint(v) & 63)
}

// setBitAtomic checks before the read-modify-write: border bits are set
// many times (once per cross edge into the vertex), and the plain load
// skips the contended OR on every hit after the first.
func setBitAtomic(ws []uint64, v int32) {
	w := &ws[v>>6]
	mask := uint64(1) << (uint(v) & 63)
	if atomic.LoadUint64(w)&mask == 0 {
		atomic.OrUint64(w, mask)
	}
}

// collectBitsN compacts a bitset into the ascending slice of its set
// indexes plus base; cnt is the bitset's popcount, already known, so
// compaction never rescans what was counted.
func collectBitsN(ws []uint64, cnt int, base int32) []int32 {
	if cnt == 0 {
		return nil
	}
	out := make([]int32, 0, cnt)
	for wi, w := range ws {
		for w != 0 {
			out = append(out, base+int32(wi*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}
