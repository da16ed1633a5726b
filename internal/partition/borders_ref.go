// Sequential map-based border computation, retained from the
// pre-bitset pipeline as the differential-test oracle.
package partition

import "sort"

// refBorders holds the map-built F.I and F.O per fragment and the
// map-based holder index I_i, the sets the bitset pipeline stores (F.O)
// or derives (F.I, I_i).
type refBorders struct {
	in, out [][]int32
	holders map[int32][]int32
}

// bordersRef recomputes the border sets and holders with the original
// map-per-fragment sweep over the renumbered graph.
func (p *Partitioned) bordersRef() refBorders {
	in := make([]map[int32]bool, p.M)
	out := make([]map[int32]bool, p.M)
	for i := range in {
		in[i], out[i] = make(map[int32]bool), make(map[int32]bool)
	}
	n := int32(p.G.NumVertices())
	for v := int32(0); v < n; v++ {
		fv := p.Owner(v)
		for _, u := range p.G.Out(v) {
			fu := p.Owner(u)
			if fu == fv {
				continue
			}
			// Edge v->u crosses fragments fv -> fu.
			out[fv][u] = true
			in[fu][u] = true
		}
	}
	ref := refBorders{
		in:      make([][]int32, p.M),
		out:     make([][]int32, p.M),
		holders: make(map[int32][]int32),
	}
	for i := range in {
		ref.in[i] = sortedKeys(in[i])
		ref.out[i] = sortedKeys(out[i])
		for _, v := range ref.out[i] {
			ref.holders[v] = append(ref.holders[v], int32(i))
		}
	}
	return ref
}

func sortedKeys(m map[int32]bool) []int32 {
	ks := make([]int32, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
