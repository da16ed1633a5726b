// Parallel ingest pipeline: multicore CSR construction, relabeling by
// array passes, direct symmetrization, and the sort-free transpose that
// builds a directed graph's in-side on first use.
//
// The entry points (Builder.Build, Relabel, AsUndirected, the in-side
// build) share a small toolbox: edge or vertex shards with per-shard
// counters feeding a deterministic scatter, vertex shards balanced by
// edge work, and a stable per-row sorter with monomorphic insertion and
// LSD-radix fast paths. Everything is dense-array work — no maps
// anywhere on the path — and every stage produces output bit-identical
// to the retained sequential references in ingest_ref.go: same vertex
// order, same adjacency order (ascending neighbor, parallel edges in
// input order).
package graph

import (
	"sort"

	"aap/internal/par"
)

// ingestShardEdges is the minimum number of edges a shard must carry
// before the pipeline adds another worker; below it goroutine fan-out
// costs more than it saves.
const ingestShardEdges = 1 << 15

// countStripeBudget bounds the transient per-worker degree-count stripes
// of stripedOffsets (4 bytes per vertex per worker), so many-core machines
// with very large vertex counts don't allocate stripes bigger than the
// CSR arrays they are building.
const countStripeBudget = 256 << 20

// ingestProcs picks the worker count for an m-edge ingest stage.
func ingestProcs(m int) int {
	return par.Procs(int64(m), ingestShardEdges)
}

// edgeShards splits [0, m) into p near-equal contiguous ranges.
func edgeShards(m, p int) []int {
	b := make([]int, p+1)
	for i := 0; i <= p; i++ {
		b[i] = i * m / p
	}
	return b
}

// vertexShardsByWork splits [0, n) into p contiguous vertex ranges with
// near-equal total edge span, so hub vertices of a power-law graph do not
// serialize the row-parallel stages.
func vertexShardsByWork(off []uint32, p int) []int32 {
	n := len(off) - 1
	total := int64(off[n])
	b := make([]int32, p+1)
	b[p] = int32(n)
	for i := 1; i < p; i++ {
		target := total * int64(i) / int64(p)
		b[i] = int32(sort.Search(n, func(v int) bool { return int64(off[v]) >= target }))
	}
	return b
}

// stripeProcs picks the worker count of a striped count/scatter over n
// rows and m entries. The count stripes are transient O(sp·n) memory;
// the fan-out is capped so they never dwarf the CSR output on many-core
// machines with huge vertex counts.
func stripeProcs(n, m int) int {
	sp := ingestProcs(m)
	if n > 0 {
		if lim := countStripeBudget / 4 / n; sp > lim {
			sp = max(lim, 1)
		}
	}
	return sp
}

// stripedOffsets is the count and prefix half of a striped scatter into
// n rows by sp shards. count(w, c) adds shard w's entries of each row
// to its private stripe c; stripedOffsets then turns every stripe entry
// into the shard's cursor within the row and returns the cursors (shard
// w's stripe is cursors[w*n:(w+1)*n]) and the row offsets. A scatter
// that places shard w's entries at off[row] + cursor puts them after
// shard w-1's within every row — exactly the sequential emission order,
// under any worker count. The counts must not wrap: callers hold fewer
// than 2^32 entries (checkArcs), and it fails when their rows add up to
// more arcs than checkArcs allows.
func stripedOffsets(n, sp int, count func(w int, c []uint32)) ([]uint32, []uint32, error) {
	counts := make([]uint32, sp*n)
	par.Do(sp, func(w int) { count(w, counts[w*n:(w+1)*n]) })

	// Offsets: per-vertex exclusive scan across shards (turning each
	// stripe entry into the shard's start within the row), then a
	// two-pass parallel prefix sum over vertex ranges.
	off := make([]uint32, n+1)
	vb := make([]int, sp+1)
	for i := 0; i <= sp; i++ {
		vb[i] = i * n / sp
	}
	rangeTotal := make([]int64, sp)
	par.Do(sp, func(w int) {
		var tot int64
		for v := vb[w]; v < vb[w+1]; v++ {
			var run uint32
			for q := 0; q < sp; q++ {
				c := counts[q*n+v]
				counts[q*n+v] = run
				run += c
			}
			off[v+1] = run
			tot += int64(run)
		}
		rangeTotal[w] = tot
	})
	var base int64
	for w := 0; w < sp; w++ {
		base, rangeTotal[w] = base+rangeTotal[w], base
	}
	if err := checkArcs(base); err != nil {
		return nil, nil, err
	}
	par.Do(sp, func(w int) {
		run := uint32(rangeTotal[w])
		for v := vb[w]; v < vb[w+1]; v++ {
			run += off[v+1]
			off[v+1] = run
		}
	})
	return counts, off, nil
}

// scatterCSR builds one CSR side — offsets, adjacency, parallel weights —
// for n vertices from m edges key[i] → val[i]. When mirror is true every
// key ≠ val edge is also emitted reversed (the undirected storage
// convention; self-loops stay single). ws may be nil for unweighted
// graphs. Rows come out stable-sorted: ascending neighbor index, parallel
// edges in input order.
//
// Each worker owns a contiguous edge shard and a private cursor stripe
// (stripedOffsets), so the scatter is deterministic; the rows are then
// sorted. No row takes more than one entry per edge, so m ≤ 2^32−1 keeps
// every count from wrapping; stripedOffsets checks the mirrored total.
func scatterCSR(n int, keys, vals []int32, ws []float64, mirror bool) ([]uint32, []int32, []float64, error) {
	m := len(keys)
	if err := checkArcs(int64(m)); err != nil {
		return nil, nil, nil, err
	}
	sp := stripeProcs(n, m)
	eb := edgeShards(m, sp)
	counts, off, err := stripedOffsets(n, sp, func(w int, c []uint32) {
		for i := eb[w]; i < eb[w+1]; i++ {
			c[keys[i]]++
			if mirror && keys[i] != vals[i] {
				c[vals[i]]++
			}
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}

	// Scatter: each worker walks its edge shard in order, placing entries
	// at off[v] + stripe cursor.
	total := off[n]
	adj := make([]int32, total)
	var wgt []float64
	if ws != nil {
		wgt = make([]float64, total)
	}
	par.Do(sp, func(w int) {
		cur := counts[w*n : (w+1)*n]
		for i := eb[w]; i < eb[w+1]; i++ {
			s, d := keys[i], vals[i]
			pos := off[s] + cur[s]
			cur[s]++
			adj[pos] = d
			if wgt != nil {
				wgt[pos] = ws[i]
			}
			if mirror && s != d {
				pos := off[d] + cur[d]
				cur[d]++
				adj[pos] = s
				if wgt != nil {
					wgt[pos] = ws[i]
				}
			}
		}
	})

	sortRows(off, adj, wgt, ingestProcs(m))
	return off, adj, wgt, nil
}

// transposeCSR builds the reverse of one CSR side: row u of the result
// lists every v whose row holds u, with w's weights parallel (w may be
// nil). Each worker owns a vertex range balanced by edge span and walks
// its rows in order through a private cursor stripe (stripedOffsets), so
// sources land in every row ascending and a row's parallel edges keep
// their order in the source row — sorted rows, with no row sort. Over a
// stable-sorted side that is the sorted reverse side bit for bit. The
// reverse side has the input's arc count, which stripedOffsets checks.
func transposeCSR(off []uint32, adj []int32, w []float64) ([]uint32, []int32, []float64, error) {
	n := len(off) - 1
	sp := stripeProcs(n, len(adj))
	vb := vertexShardsByWork(off, sp)
	counts, toff, err := stripedOffsets(n, sp, func(s int, c []uint32) {
		for _, u := range adj[off[vb[s]]:off[vb[s+1]]] {
			c[u]++
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	tadj := make([]int32, len(adj))
	var tw []float64
	if w != nil {
		tw = make([]float64, len(adj))
	}
	par.Do(sp, func(s int) {
		cur := counts[s*n : (s+1)*n]
		for v := vb[s]; v < vb[s+1]; v++ {
			for i := off[v]; i < off[v+1]; i++ {
				u := adj[i]
				pos := toff[u] + cur[u]
				cur[u]++
				tadj[pos] = v
				if tw != nil {
					tw[pos] = w[i]
				}
			}
		}
	})
	return toff, tadj, tw, nil
}

// sortRows stable-sorts every adjacency row by neighbor index, in
// parallel across vertex ranges balanced by edge count.
func sortRows(off []uint32, adj []int32, w []float64, p int) {
	vb := vertexShardsByWork(off, p)
	par.Do(p, func(worker int) {
		var rs rowSorter
		for v := vb[worker]; v < vb[worker+1]; v++ {
			lo, hi := off[v], off[v+1]
			if hi-lo < 2 {
				continue
			}
			if w == nil {
				rs.sort(adj[lo:hi], nil)
			} else {
				rs.sort(adj[lo:hi], w[lo:hi])
			}
		}
	})
}

// insertionMax is the row length at or below which binary-shift insertion
// sort beats the radix setup cost.
const insertionMax = 32

// rowSorter stable-sorts one adjacency row at a time, reusing scratch
// across rows so a whole vertex shard sorts with O(1) allocations.
type rowSorter struct {
	adjTmp []int32
	wTmp   []float64
	count  [256]int32
}

func (rs *rowSorter) sort(adj []int32, w []float64) {
	if len(adj) <= insertionMax {
		if w == nil {
			insertionSortAdj(adj)
		} else {
			insertionSortAdjW(adj, w)
		}
		return
	}
	rs.radixSort(adj, w)
}

// insertionSortAdj is a stable insertion sort over neighbor indexes.
func insertionSortAdj(adj []int32) {
	for i := 1; i < len(adj); i++ {
		a := adj[i]
		j := i - 1
		for j >= 0 && adj[j] > a {
			adj[j+1] = adj[j]
			j--
		}
		adj[j+1] = a
	}
}

// insertionSortAdjW is insertionSortAdj with the weight column kept
// parallel.
func insertionSortAdjW(adj []int32, w []float64) {
	for i := 1; i < len(adj); i++ {
		a, wv := adj[i], w[i]
		j := i - 1
		for j >= 0 && adj[j] > a {
			adj[j+1], w[j+1] = adj[j], w[j]
			j--
		}
		adj[j+1], w[j+1] = a, wv
	}
}

// radixSort is a stable byte-wise LSD radix sort; neighbor indexes are
// non-negative so unsigned byte order is value order. Passes above the
// row maximum and passes where every key shares a byte are skipped.
func (rs *rowSorter) radixSort(adj []int32, w []float64) {
	nr := len(adj)
	if cap(rs.adjTmp) < nr {
		rs.adjTmp = make([]int32, nr)
		if w != nil {
			rs.wTmp = make([]float64, nr)
		}
	}
	if w != nil && cap(rs.wTmp) < nr {
		rs.wTmp = make([]float64, nr)
	}
	src, dst := adj, rs.adjTmp[:nr]
	var wsrc, wdst []float64
	if w != nil {
		wsrc, wdst = w, rs.wTmp[:nr]
	}
	var max int32
	for _, a := range src {
		if a > max {
			max = a
		}
	}
	for shift := uint(0); max>>shift != 0; shift += 8 {
		count := &rs.count
		*count = [256]int32{}
		for _, a := range src {
			count[(a>>shift)&0xff]++
		}
		// A pass where every key shares the byte moves nothing.
		if count[(src[0]>>shift)&0xff] == int32(nr) {
			continue
		}
		var run int32
		for b := range count {
			c := count[b]
			count[b] = run
			run += c
		}
		if w != nil {
			for i, a := range src {
				b := (a >> shift) & 0xff
				pos := count[b]
				count[b]++
				dst[pos] = a
				wdst[pos] = wsrc[i]
			}
		} else {
			for _, a := range src {
				b := (a >> shift) & 0xff
				pos := count[b]
				count[b]++
				dst[pos] = a
			}
		}
		src, dst = dst, src
		wsrc, wdst = wdst, wsrc
	}
	if &src[0] != &adj[0] {
		copy(adj, src)
		if w != nil {
			copy(w, wsrc)
		}
	}
}

// permuteCSR relabels one CSR side by perm in O(n+m): new offsets from
// permuted degrees, rows copied with neighbors mapped through perm, then
// re-sorted. Parallel edges keep their input order (the old row is
// stable-sorted, the copy preserves it, and the re-sort is stable), so
// the result matches the Builder-based reference bit for bit. The copy
// has the input's arc count, so its offsets fit as the input's do.
func permuteCSR(off []uint32, adj []int32, w []float64, perm []int32) ([]uint32, []int32, []float64) {
	n := len(off) - 1
	mm := len(adj)
	p := ingestProcs(mm)
	noff := make([]uint32, n+1)
	for v := 0; v < n; v++ {
		noff[perm[v]+1] = off[v+1] - off[v]
	}
	for v := 0; v < n; v++ {
		noff[v+1] += noff[v]
	}
	nadj := make([]int32, mm)
	var nw []float64
	if w != nil {
		nw = make([]float64, mm)
	}
	vb := vertexShardsByWork(off, p)
	par.Do(p, func(worker int) {
		var rs rowSorter
		for v := vb[worker]; v < vb[worker+1]; v++ {
			lo, hi := off[v], off[v+1]
			if lo == hi {
				continue
			}
			nlo := noff[perm[v]]
			row := nadj[nlo : nlo+(hi-lo)]
			for i, u := range adj[lo:hi] {
				row[i] = perm[u]
			}
			if w == nil {
				rs.sort(row, nil)
			} else {
				wrow := nw[nlo : nlo+(hi-lo)]
				copy(wrow, w[lo:hi])
				rs.sort(row, wrow)
			}
		}
	})
	return noff, nadj, nw
}

// symmetrize builds the undirected CSR of a directed graph in O(n+m):
// row v is the sorted merge of Out(v) and the in-row of v, with
// self-loops stored once. The in-rows come from a transient weighted
// transpose of the out-side (the stored in-side has no weights). Both
// inputs are stable-sorted, so the merge resolves equal neighbors to the
// order the Builder-based reference produces — edges sorted by source
// index — without any comparison sort. The rows hold up to twice the
// input's arcs; their total is checked before any prefix is summed.
func symmetrize(g *Graph) ([]uint32, []int32, []float64, error) {
	n := len(g.ids)
	inOff, inSrc, inW, err := transposeCSR(g.outOff, g.outDst, g.outW)
	if err != nil {
		return nil, nil, nil, err
	}
	p := ingestProcs(2 * len(g.outDst))
	noff := make([]uint32, n+1)

	// Row lengths: outdeg + indeg − self-loop count (each directed
	// self-loop appears in both input rows but is stored once). A row
	// holds at most the total, so it wraps only when the check fails.
	vb := make([]int32, p+1)
	for i := 0; i <= p; i++ {
		vb[i] = int32(i * n / p)
	}
	rangeTotal := make([]int64, p)
	par.Do(p, func(worker int) {
		var tot int64
		for v := vb[worker]; v < vb[worker+1]; v++ {
			row := g.outDst[g.outOff[v]:g.outOff[v+1]]
			i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
			self := 0
			for i+self < len(row) && row[i+self] == v {
				self++
			}
			k := int64(len(row)) + int64(inOff[v+1]-inOff[v]) - int64(self)
			noff[v+1] = uint32(k)
			tot += k
		}
		rangeTotal[worker] = tot
	})
	var arcs int64
	for _, t := range rangeTotal {
		arcs += t
	}
	if err := checkArcs(arcs); err != nil {
		return nil, nil, nil, err
	}
	for v := 0; v < n; v++ {
		noff[v+1] += noff[v]
	}

	nadj := make([]int32, noff[n])
	var nw []float64
	if g.outW != nil {
		nw = make([]float64, noff[n])
	}
	mb := vertexShardsByWork(noff, p)
	par.Do(p, func(worker int) {
		for v := mb[worker]; v < mb[worker+1]; v++ {
			out := g.outDst[g.outOff[v]:g.outOff[v+1]]
			in := inSrc[inOff[v]:inOff[v+1]]
			var outw, inw []float64
			if nw != nil {
				outw = g.outW[g.outOff[v]:g.outOff[v+1]]
				inw = inW[inOff[v]:inOff[v+1]]
			}
			pos := noff[v]
			i, j := 0, 0
			for i < len(out) && j < len(in) {
				a, b := out[i], in[j]
				switch {
				case a < b:
					nadj[pos] = a
					if nw != nil {
						nw[pos] = outw[i]
					}
					i++
				case b < a:
					nadj[pos] = b
					if nw != nil {
						nw[pos] = inw[j]
					}
					j++
				case a == v:
					// Self-loop: both rows carry the same edges in the
					// same order; keep the out copy, drop the in copy.
					nadj[pos] = a
					if nw != nil {
						nw[pos] = outw[i]
					}
					i++
					j++
				case a < v:
					// Neighbor u < v: the u→v edges precede the v→u ones
					// in the reference's source-ordered emission.
					nadj[pos] = b
					if nw != nil {
						nw[pos] = inw[j]
					}
					j++
				default:
					nadj[pos] = a
					if nw != nil {
						nw[pos] = outw[i]
					}
					i++
				}
				pos++
			}
			for ; i < len(out); i++ {
				nadj[pos] = out[i]
				if nw != nil {
					nw[pos] = outw[i]
				}
				pos++
			}
			for ; j < len(in); j++ {
				nadj[pos] = in[j]
				if nw != nil {
					nw[pos] = inw[j]
				}
				pos++
			}
		}
	})
	return noff, nadj, nw, nil
}
