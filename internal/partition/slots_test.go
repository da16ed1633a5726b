package partition

import (
	"math"
	"sort"
	"strings"
	"testing"

	"aap/internal/gen"
	"aap/internal/graph"
)

// TestSlotMatchesSortedOutSearch is the property the rank bitmap must
// keep: Slot/OutSlot agree with "owned range, else binary search over
// the sorted F.O" (the map reference's) for every vertex id and for ids no vertex has, and
// Owner mirrors the binary search over Ranges (ownerSearch) for
// synthetic keys too.
func TestSlotMatchesSortedOutSearch(t *testing.T) {
	edgeless := graph.NewBuilder(true)
	for i := 0; i < 70; i++ {
		edgeless.AddVertex(graph.VertexID(i))
	}
	graphs := map[string]*graph.Graph{
		"random-500":   gen.Random(500, 3000, false, 11), // 500 = 7·64 + 52: last word partial
		"powerlaw-321": gen.PowerLaw(321, 6, 2.1, true, 12),
		"grid-8x8":     gen.Grid(8, 8, 13), // exactly one word
		"edgeless-70":  edgeless.Build(),   // every F.O empty
	}
	lastWordCopy := false
	for name, g := range graphs {
		for _, m := range []int{1, 3, 8} {
			for _, s := range []Strategy{Hash{}, Range{}, BFSLocality{Seed: 5}} {
				p, err := Build(g, m, s)
				if err != nil {
					t.Fatal(err)
				}
				n := int32(p.G.NumVertices())
				ids := []int32{-1, -64, math.MinInt32, n, n + 1, n + 63, n + 64, math.MaxInt32}
				for v := int32(0); v < n; v++ {
					ids = append(ids, v)
				}
				for _, v := range ids {
					if got, want := p.Owner(v), int(p.ownerSearch(v)); got != want {
						t.Fatalf("%s/%s/m=%d: Owner(%d) = %d, search says %d", name, s.Name(), m, v, got, want)
					}
				}
				ref := p.bordersRef()
				for _, f := range p.Frags {
					out := ref.out[f.ID]
					if m == 1 && len(out) != 0 {
						t.Fatalf("%s: single fragment has copies", name)
					}
					base := int32(f.NumOwned())
					for _, v := range ids {
						want, wantOut := int32(-1), int32(-1)
						if f.Owns(v) {
							want = v - f.Lo
						} else if i := sort.Search(len(out), func(i int) bool { return out[i] >= v }); i < len(out) && out[i] == v {
							want, wantOut = base+int32(i), int32(i)
							lastWordCopy = lastWordCopy || (n%64 != 0 && v>>6 == (n-1)>>6)
						}
						if got := f.Slot(v); got != want {
							t.Fatalf("%s/%s/m=%d: frag %d Slot(%d) = %d, want %d", name, s.Name(), m, f.ID, v, got, want)
						}
						if got := f.OutSlot(v); got != wantOut {
							t.Fatalf("%s/%s/m=%d: frag %d OutSlot(%d) = %d, want %d", name, s.Name(), m, f.ID, v, got, wantOut)
						}
					}
				}
			}
		}
	}
	if !lastWordCopy {
		t.Fatal("no case put an F.O copy in a partial last word")
	}
}

// TestSlotTableBytesAccounting pins the table's cost: one 16-byte rank
// word per 64 global vertices per fragment, whatever the border sizes,
// and the routing structures are those tables plus the coarse owner
// index, at most maxOwnerBuckets 8-byte buckets.
func TestSlotTableBytesAccounting(t *testing.T) {
	g := gen.Grid(100, 100, 3)
	for _, m := range []int{1, 16} {
		p, err := Build(g, m, BFSLocality{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		words := int64(p.G.NumVertices()+63) / 64
		if got, want := p.SlotTableBytes(), int64(m)*words*16; got != want {
			t.Fatalf("m=%d: SlotTableBytes = %d, want %d", m, got, want)
		}
		if got, want := p.RoutingTableBytes(), int64(len(p.coarse))*8+p.SlotTableBytes(); got != want || len(p.coarse) > maxOwnerBuckets {
			t.Fatalf("m=%d: RoutingTableBytes = %d, want the owner index (%d entries) plus the slot tables, %d", m, got, len(p.coarse), want)
		}
	}
}

// fixedStrategy assigns vertex v to fragment frag(v, n, m).
type fixedStrategy struct {
	name string
	frag func(v, n, m int) int32
}

func (s fixedStrategy) Name() string { return s.name }

func (s fixedStrategy) Assign(g *graph.Graph, m int) []int32 {
	out := make([]int32, g.NumVertices())
	for v := range out {
		out[v] = s.frag(v, len(out), m)
	}
	return out
}

// TestOwnerMatchesSearch is the differential test of the coarse owner
// index: Owner agrees with the binary search over Ranges (ownerSearch)
// on every vertex and on -1 and MinInt32 (vertex 0's owner), n and
// MaxInt32 (vertex n-1's owner), at M = 1 to 64, under balanced partitions, a
// Skewed one, partitions with empty fragments (the last fragments, every
// other one, all but the last) and one whose one-vertex fragments force
// buckets that meet many fragment ends.
func TestOwnerMatchesSearch(t *testing.T) {
	strategies := []Strategy{
		Hash{}, BFSLocality{Seed: 5}, Skewed{Ratio: 8, Seed: 3},
		fixedStrategy{"empty-tail", func(v, n, m int) int32 { return int32(v * ((m + 1) / 2) / n) }},
		fixedStrategy{"empty-odd", func(v, n, m int) int32 { return int32(v*((m+1)/2)/n) * 2 }},
		fixedStrategy{"empty-head", func(v, n, m int) int32 { return int32(m - 1) }},
		fixedStrategy{"singletons", func(v, n, m int) int32 { return int32(min(v, m-1)) }},
	}
	graphs := map[string]*graph.Graph{
		"road-60x60":    gen.RoadNet(60, 60, 2),
		"powerlaw-5000": gen.PowerLaw(5000, 4, 2.1, false, 4),
		"random-50":     gen.Random(50, 200, false, 6), // fewer vertices than some M
		"empty":         graph.NewBuilder(true).Build(),
	}
	for name, g := range graphs {
		for _, m := range []int{1, 2, 3, 8, 32, 64} {
			for _, s := range strategies {
				p, err := Build(g, m, s)
				if err != nil {
					t.Fatal(err)
				}
				n := int32(p.G.NumVertices())
				for _, v := range []int32{-1, math.MinInt32} {
					if got, want := p.Owner(v), p.Owner(0); got != want {
						t.Fatalf("%s/%s/m=%d: Owner(%d) = %d, want Owner(0) = %d", name, s.Name(), m, v, got, want)
					}
				}
				for _, v := range []int32{n, math.MaxInt32} {
					if got, want := p.Owner(v), p.Owner(n-1); got != want {
						t.Fatalf("%s/%s/m=%d: Owner(%d) = %d, want Owner(n-1) = %d", name, s.Name(), m, v, got, want)
					}
				}
				for v := int32(-1); v <= n; v++ {
					if got, want := p.Owner(v), int(p.ownerSearch(v)); got != want {
						t.Fatalf("%s/%s/m=%d: Owner(%d) = %d, search says %d", name, s.Name(), m, v, got, want)
					}
				}
			}
		}
	}
}

// TestOwnerAtMaxFragments drives the packed owner index at its limit:
// at maxFragments (65535) fragments, with the vertices in the highest
// fragment ids the 16-bit fields hold, Owner matches ownerSearch on
// every vertex and both sides, and one fragment more is refused with an
// error naming the count.
func TestOwnerAtMaxFragments(t *testing.T) {
	g := gen.Random(50, 200, false, 6)
	top := fixedStrategy{"top", func(v, n, m int) int32 { return int32(m - 1 - v%7) }}
	p, err := Build(g, maxFragments, top)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(-1); v <= int32(p.G.NumVertices()); v++ {
		if got, want := p.Owner(v), int(p.ownerSearch(v)); got != want || (v >= 0 && v < int32(p.G.NumVertices()) && !p.Frags[got].Owns(v)) {
			t.Fatalf("Owner(%d) = %d, search says %d", v, got, want)
		}
	}
	if p.Owner(0) < maxFragments-7 {
		t.Fatalf("vertex 0 is owned by fragment %d, not one of the top 7", p.Owner(0))
	}
	// Each bucket holds its fields exactly: end in the low 32 bits, lo in
	// the next 16 and hi−lo in the top 16.
	for b, e := range p.coarse {
		lo := p.ownerSearch(int32(b) << p.shift)
		end := p.Ranges[lo+1]
		hi := p.ownerSearch(end)
		if int32(uint32(e)) != end || int32(uint16(e>>32)) != lo || int32(e>>48) != hi-lo {
			t.Fatalf("bucket %d = %#x, want end %d, lo %d, hi %d", b, e, end, lo, hi)
		}
	}
	_, err = Build(g, maxFragments+1, Hash{})
	if err == nil || !strings.Contains(err.Error(), "65536 fragments") {
		t.Fatalf("Build with 65536 fragments: err = %v, want one naming 65536 fragments", err)
	}
}

// TestResidentBytes pins the bytes of the resident graph and of its
// routing tables on a road lattice in 8 BFS fragments and a weighted
// power-law graph in 8 hash fragments, and checks each against the
// per-array arithmetic: ids 4n, dense id index 4n, offsets 4(n+1),
// adjacency 4 and weights 8 per arc, and a directed graph's in-side
// (4(n+1) + 4 per arc) once In builds it; the owner index 8 per bucket
// and the slot tables 16 per 64 vertices per fragment.
func TestResidentBytes(t *testing.T) {
	cases := []struct {
		name             string
		g                *graph.Graph
		s                Strategy
		graphB, routingB int64
	}{
		{"road-100x100/bfs", gen.RoadNet(100, 100, 1), BFSLocality{}, 574780, 20176},
		{"powerlaw-20000/hash", gen.PowerLaw(20000, 8, 2.1, true, 7), Hash{}, 2160004, 40144},
	}
	for _, c := range cases {
		p, err := Build(c.g, 8, c.s)
		if err != nil {
			t.Fatal(err)
		}
		g := p.G
		n, arcs := int64(g.NumVertices()), g.OutSpan(0, int32(g.NumVertices()))
		want := 4*n + 4*n + 4*(n+1) + 12*arcs
		if got := g.ResidentBytes(); got != want || got != c.graphB {
			t.Fatalf("%s: ResidentBytes = %d, want %d by the arithmetic and %d pinned", c.name, got, want, c.graphB)
		}
		words := (n + 63) / 64
		wantR := 8*int64(len(p.coarse)) + 8*words*16
		if got := p.RoutingTableBytes(); got != wantR || got != c.routingB {
			t.Fatalf("%s: RoutingTableBytes = %d, want %d by the arithmetic and %d pinned", c.name, got, wantR, c.routingB)
		}
		if g.Directed() {
			g.In(0)
			if got, want := g.ResidentBytes(), want+4*(n+1)+4*arcs; got != want {
				t.Fatalf("%s: ResidentBytes with the in-side = %d, want %d", c.name, got, want)
			}
		}
	}
}
