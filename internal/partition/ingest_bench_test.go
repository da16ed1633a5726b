package partition_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

// benchGraph builds the partition-bench input once: a directed weighted
// power-law graph shaped like the harness datasets.
func benchGraph(n, deg int) *graph.Graph {
	rng := rand.New(rand.NewSource(42))
	b := graph.NewBuilder(true)
	b.SetWeighted()
	b.Reserve(n, n*deg)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VertexID(i))
	}
	for e := 0; e < n*deg; e++ {
		f := rng.Float64()
		s := int32(f * f * float64(n))
		d := int32(rng.Intn(n))
		if s == d {
			d = (d + 1) % int32(n)
		}
		b.AddWeightedEdge(graph.VertexID(s), graph.VertexID(d), 1+rng.Float64()*99)
	}
	return b.Build()
}

// BenchmarkPartitionBuild measures the full partition pipeline (assign +
// relabel + F.O sweep + slot tables) per strategy: hash, the worst case
// for border size, and bfs, whose locality keeps F.O small but whose
// assignment walks the in-side too.
func BenchmarkPartitionBuild(b *testing.B) {
	g := benchGraph(150_000, 16)
	for _, s := range []partition.Strategy{partition.Hash{}, partition.BFSLocality{Seed: 1}} {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := partition.Build(g, 16, s)
				if err != nil {
					b.Fatal(err)
				}
				if p.M != 16 {
					b.Fatal("bad partition")
				}
			}
		})
	}
}

// BenchmarkIngestEndToEnd is the acceptance benchmark: CSR build plus the
// full partition pipeline, everything between "edges in memory" and "engine
// ready to run".
func BenchmarkIngestEndToEnd(b *testing.B) {
	n, deg := 150_000, 16
	rng := rand.New(rand.NewSource(42))
	bld := graph.NewBuilder(true)
	bld.SetWeighted()
	bld.Reserve(n, n*deg)
	for i := 0; i < n; i++ {
		bld.AddVertex(graph.VertexID(i))
	}
	for e := 0; e < n*deg; e++ {
		f := rng.Float64()
		s := int32(f * f * float64(n))
		d := int32(rng.Intn(n))
		if s == d {
			d = (d + 1) % int32(n)
		}
		bld.AddWeightedEdge(graph.VertexID(s), graph.VertexID(d), 1+rng.Float64()*99)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := bld.Build()
		p, err := partition.Build(g, 16, partition.Hash{})
		if err != nil {
			b.Fatal(err)
		}
		if p.M != 16 {
			b.Fatal("bad partition")
		}
	}
}

// BenchmarkFileToFragments is the full ingest path the streaming loader
// targets: file bytes through the chunked parallel parse, sharded
// intern, CSR build, and the partition pipeline, to engine-ready
// fragments.
func BenchmarkFileToFragments(b *testing.B) {
	g := benchGraph(150_000, 16)
	path := filepath.Join(b.TempDir(), "bench.txt")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g2, err := graph.ReadEdgeListFile(path)
		if err != nil {
			b.Fatal(err)
		}
		p, err := partition.Build(g2, 16, partition.Hash{})
		if err != nil {
			b.Fatal(err)
		}
		if p.M != 16 {
			b.Fatal("bad partition")
		}
	}
}

// BenchmarkSlotLookup measures the two per-message routing reads on a
// hash-partitioned power-law graph. slot is Fragment.Slot the way an
// SSSP sweep drives it: random ids, about half of them F.O copies and
// half vertices the fragment neither owns nor copies. owner is
// Partitioned.Owner the way Stage.Send drives it, once per message:
// random ids over the whole vertex range.
func BenchmarkSlotLookup(b *testing.B) {
	g := gen.PowerLaw(300_000, 8, 2.1, true, 42)
	p, err := partition.Build(g, 8, partition.Hash{})
	if err != nil {
		b.Fatal(err)
	}
	f := p.Frags[3]
	rng := rand.New(rand.NewSource(7))
	out := copyList(f)
	ids := make([]int32, 1<<16)
	for i := range ids {
		if i%2 == 0 {
			ids[i] = out[rng.Intn(len(out))]
			continue
		}
		for {
			if v := int32(rng.Intn(p.G.NumVertices())); f.Slot(v) < 0 {
				ids[i] = v
				break
			}
		}
	}
	b.Run("slot", func(b *testing.B) {
		var sum int32
		for i := 0; i < b.N; i++ {
			sum += f.Slot(ids[i&(len(ids)-1)])
		}
		slotSink = sum
	})
	vs := make([]int32, 1<<16)
	for i := range vs {
		vs[i] = int32(rng.Intn(p.G.NumVertices()))
	}
	b.Run("owner", func(b *testing.B) {
		var sum int
		for i := 0; i < b.N; i++ {
			sum += p.Owner(vs[i&(len(vs)-1)])
		}
		slotSink = int32(sum)
	})
}

var slotSink int32
