package vcentric_test

import (
	"fmt"
	"math"
	"testing"

	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/harness"
	"aap/internal/partition"
	"aap/internal/sim"
	"aap/internal/vcentric"
)

// runMatrix runs prog under the three vertex-centric schedules on 1, 3
// and 8 hash fragments and hands check every vertex's value next to its
// index in g (the partition renumbers vertices; ids map back).
func runMatrix(t *testing.T, g *graph.Graph, prog vcentric.Program, check func(t *testing.T, orig int32, got float64)) {
	t.Helper()
	for _, m := range []int{1, 3, 8} {
		p, err := partition.Build(g, m, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.Mode{core.BSP, core.AP, core.Hsync} {
			t.Run(fmt.Sprintf("m=%d/%s", m, mode), func(t *testing.T) {
				res, err := core.Run(p, vcentric.Job(prog), core.Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.TotalWork == 0 {
					t.Error("no work reported")
				}
				for v, got := range res.Values {
					orig, _ := g.IndexOf(p.G.IDOf(int32(v)))
					check(t, orig, got)
				}
			})
		}
	}
}

func TestVertexCentricSSSP(t *testing.T) {
	g := gen.PowerLaw(400, 5, 2.1, true, 41)
	want := ref.SSSP(g, 0)
	runMatrix(t, g, vcentric.SSSPProgram{Source: 0}, func(t *testing.T, v int32, got float64) {
		if got != want[v] && !(math.IsInf(got, 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("vertex %d: got %v want %v", v, got, want[v])
		}
	})
}

func TestVertexCentricCC(t *testing.T) {
	g := gen.SmallWorld(300, 2, 0.05, false, 43)
	want := ref.CC(g)
	runMatrix(t, g, vcentric.CCProgram{}, func(t *testing.T, v int32, got float64) {
		if int64(got) != want[v] {
			t.Fatalf("vertex %d: got cid %v want %d", v, got, want[v])
		}
	})
}

func TestVertexCentricPageRank(t *testing.T) {
	g := gen.PowerLaw(300, 5, 2.1, false, 47)
	want := ref.PageRank(g, 0.85, 1e-9, 500)
	runMatrix(t, g, vcentric.PageRankProgram{Tol: 1e-10}, func(t *testing.T, v int32, got float64) {
		if d := math.Abs(got - want[v]); d > 1e-5 {
			t.Fatalf("vertex %d: got %v want %v", v, got, want[v])
		}
	})
}

// TestCountsPerEdgeMessages pins the vertex-centric cost model: a star
// graph's center activation sends one 12-byte message (4-byte vertex id,
// 8-byte value) per edge, and on a single fragment every one of them is a
// local send.
func TestCountsPerEdgeMessages(t *testing.T) {
	b := graph.NewBuilder(true)
	b.SetWeighted()
	for i := 1; i <= 10; i++ {
		b.AddWeightedEdge(0, graph.VertexID(i), 1)
	}
	p, err := partition.Build(b.Build(), 1, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, vcentric.Job(vcentric.SSSPProgram{Source: 0}), core.Options{Mode: core.BSP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalMsgs != 10 {
		t.Errorf("want 10 per-edge messages, got %d", res.Stats.TotalMsgs)
	}
	if res.Stats.TotalBytes != 120 {
		t.Errorf("want 120 bytes, got %d", res.Stats.TotalBytes)
	}
	if res.Stats.MaxRound != 2 {
		t.Errorf("want 2 rounds (activate + drain), got %d", res.Stats.MaxRound)
	}
}

// TestPIEBeatsVertexCentricOnSim is the direction of Table 1 / Exp-1,
// deterministic because both sides run on the virtual-time simulator
// over the same fragments: the vertex program ships strictly more
// messages and does more work than the fragment-centric SSSP, which
// settles a fragment with Dijkstra and ships border values only.
func TestPIEBeatsVertexCentricOnSim(t *testing.T) {
	ds := harness.TrafficSim(1)
	p, err := harness.SkewPartition(ds, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	pie, err := sim.Run(p, sssp.Job(ds.Source), sim.Config{Options: core.Options{Mode: core.AAP}})
	if err != nil {
		t.Fatal(err)
	}
	vc, err := sim.Run(p, vcentric.Job(vcentric.SSSPProgram{Source: ds.Source}), sim.Config{Options: core.Options{Mode: core.AAP}})
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range pie.Values {
		if vc.Values[v] != d {
			t.Fatalf("vertex %d: vertex-centric %v, PIE %v", v, vc.Values[v], d)
		}
	}
	if vc.Stats.TotalMsgs <= pie.Stats.TotalMsgs {
		t.Errorf("vertex-centric shipped %d messages, PIE %d", vc.Stats.TotalMsgs, pie.Stats.TotalMsgs)
	}
	if vc.Stats.TotalWork <= pie.Stats.TotalWork {
		t.Errorf("vertex-centric reported %d work units, PIE %d", vc.Stats.TotalWork, pie.Stats.TotalWork)
	}
}
