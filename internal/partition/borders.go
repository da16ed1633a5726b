// Border-set computation as a parallel, map-free edge sweep.
//
// Every cross-fragment edge v→u sets one bit: u in the F.O bitset of
// v's fragment. Setting a bit is idempotent, so the parallel sweep needs
// only atomic OR. The bitset, with a running rank per word, is F.O as
// the fragment keeps it (slots.go): F.I is derived from it by InBorder,
// and the routing index I_i is read off the fragments' bitmaps. A
// map-based sweep (borders_ref.go) pins F.O, the derived F.I and the
// holder walk in the differential tests of borders_test.go.
package partition

import (
	"math/bits"
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

// computeBorders fills each fragment's F.O from the renumbered graph as
// its copy-slot table.
func (p *Partitioned) computeBorders() {
	n := p.G.NumVertices()
	words := (n + 63) / 64
	// One arena holds the M F.O bitsets; fragment i's is
	// arena[i*words : (i+1)*words].
	arena := make([]uint64, p.M*words)

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
	parFrags(p.M, func(i int) {
		f := p.Frags[i]
		f.copySlots, f.copies = newRankWords(arena[i*words:(i+1)*words], int32(f.NumOwned()))
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
// exactly when some other fragment holds a copy of it. The rank words
// of every fragment that cover the owned range are OR-ed together (a
// fragment's own words hold no bit in its range) and the result, masked
// to [Lo, Hi), is collected ascending. It is built on every call and
// not kept.
func (f *Fragment) InBorder() []int32 {
	if f.Lo >= f.Hi {
		return nil
	}
	lw, hw := int(f.Lo>>6), int((f.Hi-1)>>6)
	in := make([]uint64, hw-lw+1)
	for _, g := range f.p.Frags {
		for w := range in {
			in[w] |= g.copySlots[lw+w].bits
		}
	}
	in[0] &^= 1<<(uint(f.Lo)&63) - 1
	in[len(in)-1] &= ^uint64(0) >> (63 - uint(f.Hi-1)&63)
	var out []int32
	for w, word := range in {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32((lw+w)<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
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
