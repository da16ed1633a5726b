// Border-set computation as a parallel, map-free edge sweep.
//
// The former implementation routed every cross-fragment edge through four
// map[int32]bool inserts; this one sets four bits in per-fragment dense
// bitsets over the vertex range (idempotent, so the parallel sweep needs
// only atomic OR, and compaction by ascending scan yields the sorted
// border slices for free). The map implementation is retained in
// borders_ref.go and pinned by the differential tests in borders_test.go.
package partition

import (
	"math/bits"
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

// The four border-set kinds, in fragment-arena order.
const (
	kIn = iota
	kOutPrime
	kOut
	kInPrime
	kinds
)

// computeBorders fills the four border sets of each fragment from the
// renumbered graph, assigns F.O copy slots, and builds the CSR holder
// index.
func (p *Partitioned) computeBorders() {
	n := p.G.NumVertices()
	words := (n + 63) / 64
	// One arena holds all 4*M bitsets; fragment i's set of kind k is
	// arena[(i*kinds+k)*words : ...+words].
	arena := make([]uint64, kinds*p.M*words)
	bitset := func(frag, kind int) []uint64 {
		o := (frag*kinds + kind) * words
		return arena[o : o+words]
	}

	procs := par.Procs(p.G.OutSpan(0, int32(n)), bordersShardEdges)
	vb := p.G.OutShards(procs)
	set := setBitAtomic
	if procs == 1 {
		set = setBit // uncontended sweep skips the atomics
	}
	par.Do(procs, func(w int) {
		p.sweepBorders(vb[w], vb[w+1], arena, words, set)
	})

	// Popcount pass: per-fragment border sizes. The scan is uniform
	// (every fragment owns the same 4·words), so fragment-strided
	// parallelism is already balanced here.
	cnts := make([]int, kinds*p.M)
	parFrags(p.M, func(i int) {
		for k := 0; k < kinds; k++ {
			c := 0
			for _, w := range bitset(i, k) {
				c += bits.OnesCount64(w)
			}
			cnts[i*kinds+k] = c
		}
	})

	// Compact each fragment's bitsets into the sorted border slices and
	// build its copy-slot table. Compaction cost is dominated by the
	// border sizes, not the fragment count, so fragments are scheduled
	// largest-first from a shared counter: a single huge-F.O straggler
	// starts immediately while the small fragments pack around it,
	// instead of serializing whatever a fragment-strided split queued
	// behind it.
	weight := make([]int, p.M)
	order := make([]int, p.M)
	for i := range order {
		weight[i] = cnts[i*kinds] + cnts[i*kinds+1] + cnts[i*kinds+2] + cnts[i*kinds+3]
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if wa, wb := weight[order[a]], weight[order[b]]; wa != wb {
			return wa > wb
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
			f := p.Frags[i]
			f.In = collectBitsN(bitset(i, kIn), cnts[i*kinds+kIn])
			f.OutPrime = collectBitsN(bitset(i, kOutPrime), cnts[i*kinds+kOutPrime])
			f.Out = collectBitsN(bitset(i, kOut), cnts[i*kinds+kOut])
			f.InPrime = collectBitsN(bitset(i, kInPrime), cnts[i*kinds+kInPrime])
			f.copySlots = newRankWords(bitset(i, kOut), int32(f.NumOwned()))
		}
	})

	// Holder index: invert the F.O sets into CSR form. Fragments are
	// visited in ascending id order, so each vertex's holder list comes
	// out sorted, matching the old append order.
	hoff := make([]int32, n+1)
	for _, f := range p.Frags {
		for _, v := range f.Out {
			hoff[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		hoff[v+1] += hoff[v]
	}
	hdat := make([]int32, hoff[n])
	cursor := append([]int32(nil), hoff[:n]...)
	for i, f := range p.Frags {
		for _, v := range f.Out {
			hdat[cursor[v]] = int32(i)
			cursor[v]++
		}
	}
	p.holderOff, p.holderDat = hoff, hdat
}

// sweepBorders marks the border bits induced by out-edges of vertices in
// [lo, hi). set is setBit for the single-worker sweep and setBitAtomic
// for the shared-arena parallel sweep; bit-setting is idempotent and
// commutative, so the parallel result is schedule-independent.
func (p *Partitioned) sweepBorders(lo, hi int32, arena []uint64, words int, set func([]uint64, int32)) {
	for v := lo; v < hi; v++ {
		fv := p.owner[v]
		for _, u := range p.G.Out(v) {
			fu := p.owner[u]
			if fu == fv {
				continue
			}
			// Edge v->u crosses fragments fv -> fu.
			fvo := int(fv) * kinds * words
			fuo := int(fu) * kinds * words
			set(arena[fvo+kOutPrime*words:fvo+(kOutPrime+1)*words], v)
			set(arena[fvo+kOut*words:fvo+(kOut+1)*words], u)
			set(arena[fuo+kIn*words:fuo+(kIn+1)*words], u)
			set(arena[fuo+kInPrime*words:fuo+(kInPrime+1)*words], v)
		}
	}
}

func setBit(ws []uint64, v int32) {
	ws[v>>6] |= 1 << (uint(v) & 63)
}

// setBitAtomic checks before the read-modify-write: border bits are set
// many times (once per cross edge touching the vertex), and the plain
// load skips the contended OR on every hit after the first.
func setBitAtomic(ws []uint64, v int32) {
	w := &ws[v>>6]
	mask := uint64(1) << (uint(v) & 63)
	if atomic.LoadUint64(w)&mask == 0 {
		atomic.OrUint64(w, mask)
	}
}

// collectBitsN compacts a bitset into the ascending slice of set
// indexes; cnt is the bitset's popcount, already known from the sizing
// pass, so compaction never rescans what was counted.
func collectBitsN(ws []uint64, cnt int) []int32 {
	if cnt == 0 {
		return nil
	}
	out := make([]int32, 0, cnt)
	for wi, w := range ws {
		for w != 0 {
			out = append(out, int32(wi*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}
