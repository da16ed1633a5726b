package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

// BenchmarkServeSSSPBatch: one op is k concurrent SSSP queries through
// Server.SSSP, sources drawn from Zipf(s=1.2, v=8) over the vertices with
// out-edges in id order (the hubs are the hot sources, as on the
// serve_sssp_rpc workload), on gen.PowerLaw(50k, 8, 2.1) in 4 hash
// fragments, every option at its default. Each query starts its run at
// once unless one for its source is queued or running, which it joins.
// scanned/op counts the edge scans of each engine run once (a run's
// scan divided among the queries it answered): the number a kernel that
// shares scans among concurrent queries' sources would have to beat.
func BenchmarkServeSSSPBatch(b *testing.B) {
	g := gen.PowerLaw(50_000, 8, 2.1, true, 1)
	p, err := partition.Build(g, 4, partition.Hash{})
	if err != nil {
		b.Fatal(err)
	}
	var eligible []graph.VertexID
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if g.OutDegree(v) >= 1 {
			eligible = append(eligible, g.IDOf(v))
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.2, 8, uint64(len(eligible)-1))
	hot := make([]graph.VertexID, 8)
	for i := range hot {
		hot[i] = eligible[zipf.Uint64()]
	}
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			srv := New(p)
			stats := make([]core.RunStats, k)
			var scanned float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for j, src := range hot[:k] {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var err error
						if _, stats[j], err = srv.SSSP(src); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
				for _, st := range stats {
					scanned += float64(st.ScannedEdges) / float64(st.BatchSize)
				}
			}
			b.ReportMetric(scanned/float64(b.N), "scanned/op")
		})
	}
}
