package partition

import (
	"math"
	"sort"
	"testing"

	"aap/internal/gen"
	"aap/internal/graph"
)

// TestSlotMatchesSortedOutSearch is the property the rank bitmap must
// keep: Slot/OutSlot agree with "owned range, else binary search over
// the sorted F.O" for every vertex id and for ids no vertex has, and
// Owner mirrors the binary search over Ranges for synthetic keys too.
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
					if got, want := p.Owner(v), p.ownerSearch(v); got != want {
						t.Fatalf("%s/%s/m=%d: Owner(%d) = %d, search says %d", name, s.Name(), m, v, got, want)
					}
				}
				for _, f := range p.Frags {
					if m == 1 && len(f.Out) != 0 {
						t.Fatalf("%s: single fragment has copies", name)
					}
					base := int32(f.NumOwned())
					for _, v := range ids {
						want, wantOut := int32(-1), int32(-1)
						if f.Owns(v) {
							want = v - f.Lo
						} else if i := sort.Search(len(f.Out), func(i int) bool { return f.Out[i] >= v }); i < len(f.Out) && f.Out[i] == v {
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
// and the routing structures are those tables plus the owner table.
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
		if got, want := p.RoutingTableBytes(), int64(p.G.NumVertices())*4+p.SlotTableBytes(); got != want {
			t.Fatalf("m=%d: RoutingTableBytes = %d, want the owner table plus the slot tables, %d", m, got, want)
		}
	}
}
