package bench

import (
	"fmt"
	"testing"

	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/harness"
	"aap/internal/partition"
	"aap/internal/sim"
	"aap/internal/vcentric"
)

// BenchmarkAblationPartitioner compares partition strategies under AAP —
// the Section 2 remark that strategy choice changes skew and hence AAP's
// headroom, without affecting correctness.
func BenchmarkAblationPartitioner(b *testing.B) {
	ds := harness.FriendsterSim(1)
	strategies := []partition.Strategy{
		partition.Hash{},
		partition.Range{},
		partition.BFSLocality{Seed: 1},
		partition.Skewed{Ratio: 5, Seed: 1},
	}
	for i := 0; i < b.N; i++ {
		out := "SSSP on friendster-sim, 16 workers, AAP under each partitioner\n"
		for _, s := range strategies {
			p, err := partition.Build(ds.Graph, 16, s)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(p, sssp.Job(ds.Source), sim.Config{Options: core.Options{Mode: core.AAP}})
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("%-8s skew %5.2f  time %8.2f  comm %7.2f MB\n",
				s.Name(), p.Skew(), res.Stats.Seconds, float64(res.Stats.TotalBytes)/(1<<20))
		}
		report(b, "Ablation: partitioner", out)
	}
}

// BenchmarkAblationIncEval quantifies the incremental-evaluation design
// choice: AAP with the bounded-incremental SSSP IncEval against the
// vertex-centric label-correcting equivalent (which recomputes from
// per-vertex messages), the Exp-1 explanation for the GRAPE+ gap. Both
// sides run on the simulator over the same fragments, so the two lines
// repeat to the digit.
func BenchmarkAblationIncEval(b *testing.B) {
	ds := harness.TrafficSim(1)
	p, err := harness.SkewPartition(ds, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		pie, err := sim.Run(p, sssp.Job(ds.Source), sim.Config{Options: core.Options{Mode: core.AAP}})
		if err != nil {
			b.Fatal(err)
		}
		vc, err := sim.Run(p, vcentric.Job(vcentric.SSSPProgram{Source: ds.Source}), sim.Config{Options: core.Options{Mode: core.AAP}})
		if err != nil {
			b.Fatal(err)
		}
		out := fmt.Sprintf("fragment-centric incremental SSSP: work %d units, %d msgs, %.2f virtual s\n",
			pie.Stats.TotalWork, pie.Stats.TotalMsgs, pie.Stats.Seconds)
		out += fmt.Sprintf("vertex-centric label correcting:   work %d units, %d msgs, %.2f virtual s\n",
			vc.Stats.TotalWork, vc.Stats.TotalMsgs, vc.Stats.Seconds)
		report(b, "Ablation: incremental IncEval", out)
		b.ReportMetric(float64(pie.Stats.TotalWork), "work-units")
	}
}
