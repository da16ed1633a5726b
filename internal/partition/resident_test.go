package partition_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

// TestResidentBytesMatchHeap checks that the byte counters account for
// everything the resident plane keeps: the heap that ReadEdgeListFile →
// Build → NewSession leaves live is G.ResidentBytes() +
// RoutingTableBytes() to within 2%, on a weighted power-law graph in 8
// hash fragments (large F.O sets) and a road lattice in 8 BFS fragments.
func TestResidentBytesMatchHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and loads graphs of 90k and 200k vertices")
	}
	cases := []struct {
		name string
		gen  func() *graph.Graph
		s    partition.Strategy
	}{
		{"powerlaw-200000/hash", func() *graph.Graph { return gen.PowerLaw(200000, 8, 2.1, true, 5) }, partition.Hash{}},
		{"road-300x300/bfs", func() *graph.Graph { return gen.RoadNet(300, 300, 5) }, partition.BFSLocality{}},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "g.txt")
		writeGraph(t, path, c.gen())
		heap0 := liveHeap()
		g, err := graph.ReadEdgeListFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := partition.Build(g, 8, c.s)
		if err != nil {
			t.Fatal(err)
		}
		// Build's relabeled copy is the resident graph; g is dead here.
		sess := core.NewSession(p)
		live := liveHeap() - heap0
		counted := p.G.ResidentBytes() + p.RoutingTableBytes()
		runtime.KeepAlive(sess)
		t.Logf("%s: live heap %d B, counted %d B (%+.2f%%)", c.name, live, counted, 100*float64(live-counted)/float64(counted))
		if diff := max(live-counted, counted-live); float64(diff) > 0.02*float64(counted) {
			t.Fatalf("%s: live heap %d B, the counters say %d B: %d B apart, more than 2%%", c.name, live, counted, diff)
		}
	}
}

// writeGraph writes g to path in the edge-list format.
func writeGraph(t *testing.T, path string, g *graph.Graph) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// liveHeap collects twice, so that what the first collection only
// queued is gone too, and returns the bytes still allocated.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
