package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/par"
)

// forceBorderShards makes the border sweep and fragment fan-out run with
// p workers regardless of GOMAXPROCS, exercising the atomic bitset path
// on single-core machines.
func forceBorderShards(t *testing.T, p int) {
	t.Helper()
	prev := par.Override
	par.Override = p
	t.Cleanup(func() { par.Override = prev })
}

// TestBordersMatchMapReference is the differential test pinning the
// bitset border pipeline to the retained map-based implementation:
// Copies walks the reference's sorted F.O with its slots, and the copy
// counts, the derived F.I, the slot and copy-slot assignment and the
// holder lists read off the F.O bitmaps are identical — across
// directed and undirected graphs, self-loops, parallel edges, every
// strategy, m=1 (empty borders) and more fragments than some graphs
// have vertices.
func TestBordersMatchMapReference(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
	}
	cases := []tc{
		{"powerlaw-directed", gen.PowerLaw(400, 5, 2.1, true, 21)},
		{"grid-undirected", gen.Grid(15, 15, 22)},
		{"random-directed", gen.Random(200, 1200, false, 23)},
		{"selfloop-parallel", selfLoopParallelGraph()},
	}
	strategies := []Strategy{Hash{}, Range{}, BFSLocality{Seed: 5}, Skewed{Ratio: 4, Seed: 5}}
	for _, procs := range []int{1, 4} {
		forceBorderShards(t, procs)
		for _, c := range cases {
			for _, m := range []int{1, 2, 7, 64} {
				for _, s := range strategies {
					p, err := Build(c.g, m, s)
					if err != nil {
						t.Fatalf("%s/%s/m=%d: %v", c.name, s.Name(), m, err)
					}
					tag := fmt.Sprintf("procs=%d/%s/%s/m=%d", procs, c.name, s.Name(), m)
					checkAgainstRef(t, tag, p)
				}
			}
		}
	}
}

// selfLoopParallelGraph is a small directed graph dense in self-loops and
// parallel cross edges.
func selfLoopParallelGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(9))
	b := graph.NewBuilder(true)
	b.SetWeighted()
	for i := 0; i < 40; i++ {
		b.AddVertex(graph.VertexID(i))
	}
	for e := 0; e < 300; e++ {
		s := int32(rng.Intn(40))
		d := int32(rng.Intn(40))
		if e%7 == 0 {
			d = s // self-loop
		}
		b.AddWeightedEdge(graph.VertexID(s), graph.VertexID(d), float64(e))
		if e%5 == 0 {
			b.AddWeightedEdge(graph.VertexID(s), graph.VertexID(d), float64(e)+0.5)
		}
	}
	return b.Build()
}

func checkAgainstRef(t *testing.T, tag string, p *Partitioned) {
	t.Helper()
	ref := p.bordersRef()
	eq := func(kind string, frag int, got, want []int32) {
		if len(got) != len(want) {
			t.Fatalf("%s: frag %d %s: %d entries, want %d", tag, frag, kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: frag %d %s[%d] = %d, want %d", tag, frag, kind, i, got[i], want[i])
			}
		}
	}
	for i, f := range p.Frags {
		// Copies walks F.O ascending, each copy with its slot: the
		// owned count plus its rank.
		base := int32(f.NumOwned())
		var out []int32
		for s, v := range f.Copies() {
			if want := base + int32(len(out)); s != want {
				t.Fatalf("%s: frag %d Copies gives %d slot %d, want %d", tag, i, v, s, want)
			}
			out = append(out, v)
		}
		eq("Copies", i, out, ref.out[i])
		if f.NumCopies() != len(ref.out[i]) || f.Slots() != f.NumOwned()+len(ref.out[i]) {
			t.Fatalf("%s: frag %d counts %d copies and %d slots, want %d and %d", tag, i, f.NumCopies(), f.Slots(), len(ref.out[i]), f.NumOwned()+len(ref.out[i]))
		}
		for _, v := range []int32{0, f.Lo, f.Hi, int32(p.G.NumVertices())} {
			below := 0
			for below < len(ref.out[i]) && ref.out[i][below] < v {
				below++
			}
			if got := f.CopiesBelow(v); got != below {
				t.Fatalf("%s: frag %d CopiesBelow(%d) = %d, want %d", tag, i, v, got, below)
			}
		}
		eq("InBorder", i, f.InBorder(), ref.in[i])
		checkCopyMarks(t, tag, f, ref.out[i])
		// Slot table: owned range, then F.O copies in ascending order,
		// -1 everywhere else.
		want := make(map[int32]int32)
		for v := f.Lo; v < f.Hi; v++ {
			want[v] = v - f.Lo
		}
		for s, v := range ref.out[i] {
			want[v] = base + int32(s)
		}
		for v := int32(0); v < int32(p.G.NumVertices()); v++ {
			w, ok := want[v]
			if !ok {
				w = -1
			}
			if got := f.Slot(v); got != w {
				t.Fatalf("%s: frag %d Slot(%d) = %d, want %d", tag, i, v, got, w)
			}
			wantOut := int32(-1)
			if w >= base {
				wantOut = w - base
			}
			if got := f.OutSlot(v); got != wantOut {
				t.Fatalf("%s: frag %d OutSlot(%d) = %d, want %d", tag, i, v, got, wantOut)
			}
		}
	}
	// The routing index I_i is the walk over the fragments, in ascending
	// id, whose F.O bitmap has v: exactly the reference holder list.
	n := int32(p.G.NumVertices())
	for v := int32(-2); v < n+2; v++ {
		var got []int32
		for j, f := range p.Frags {
			if f.OutSlot(v) >= 0 {
				got = append(got, int32(j))
			}
		}
		want := ref.holders[v]
		if len(got) != len(want) {
			t.Fatalf("%s: holders of %d: %v, want %v", tag, v, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: holders of %d: %v, want %v", tag, v, got, want)
			}
		}
	}
}

// checkCopyMarks marks every third copy of out, F.O by the reference,
// then all of them, and checks that Drain yields exactly the marked
// copies ascending with their slots, that a drain stopped after the
// first copy keeps the rest, and that the set is empty after a drain.
func checkCopyMarks(t *testing.T, tag string, f *Fragment, out []int32) {
	t.Helper()
	m := f.NewCopyMarks()
	drain := func(limit int) (got []int32) {
		for s, v := range m.Drain() {
			if want := f.Slot(v); s != want {
				t.Fatalf("%s: frag %d CopyMarks yields %d with slot %d, want %d", tag, f.ID, v, s, want)
			}
			if got = append(got, v); len(got) == limit {
				break
			}
		}
		return got
	}
	var third []int32
	for i := len(out) - 1; i >= 0; i -= 3 {
		m.Add(out[i])
		third = append([]int32{out[i]}, third...)
	}
	eqList := func(kind string, got, want []int32) {
		if len(got) != len(want) {
			t.Fatalf("%s: frag %d CopyMarks %s: %d copies, want %d", tag, f.ID, kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: frag %d CopyMarks %s[%d] = %d, want %d", tag, f.ID, kind, i, got[i], want[i])
			}
		}
	}
	eqList("third", drain(-1), third)
	for _, v := range out {
		m.Add(v)
	}
	first := drain(1)
	eqList("all", append(first, drain(-1)...), out)
	eqList("after a drain", drain(-1), nil)
}

// TestSkewedCompactionMatchesReference pins the border pipeline on a
// partition where one fragment's F.O dwarfs the rest (hub-heavy
// power-law graph, skewed strategy): every border set, slot table, and
// holder list must match the map reference under single- and
// multi-worker sweeps.
func TestSkewedCompactionMatchesReference(t *testing.T) {
	g := gen.PowerLaw(1500, 10, 2.0, true, 41)
	for _, procs := range []int{1, 5} {
		forceBorderShards(t, procs)
		for _, m := range []int{4, 13} {
			p, err := Build(g, m, Skewed{Ratio: 8, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstRef(t, fmt.Sprintf("skewed/procs=%d/m=%d", procs, m), p)
		}
	}
}

// TestSkewMatchesRecompute pins the precomputed fragment sizes to a
// from-scratch degree scan.
func TestSkewMatchesRecompute(t *testing.T) {
	g := gen.PowerLaw(800, 6, 2.1, false, 31)
	for _, m := range []int{1, 4, 9} {
		for _, s := range []Strategy{Hash{}, Skewed{Ratio: 5, Seed: 2}} {
			p, err := Build(g, m, s)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range p.Frags {
				var edges int64
				for v := f.Lo; v < f.Hi; v++ {
					edges += int64(p.G.OutDegree(v))
				}
				want := float64(int64(f.NumOwned()) + edges)
				if p.sizes[i] != want {
					t.Fatalf("m=%d %s: sizes[%d] = %v, want %v", m, s.Name(), i, p.sizes[i], want)
				}
			}
		}
	}
}
