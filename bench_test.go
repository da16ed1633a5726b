// Package bench regenerates every table and figure of the paper's
// evaluation (Section 7 and Appendix B) as Go benchmarks. Each benchmark
// prints the same rows or series the paper reports (once per run) and
// reports the headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Dataset sizes scale with AAP_SCALE.
package bench

import (
	"fmt"
	"sync"
	"testing"

	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/harness"
	"aap/internal/sim"
)

// printOnce prints an experiment report a single time across benchmark
// iterations and re-runs.
var printed sync.Map

func report(b *testing.B, name, out string) {
	b.Helper()
	if _, dup := printed.LoadOrStore(name, true); !dup {
		fmt.Printf("\n==== %s ====\n%s\n", name, out)
	}
}

// workerSweep is the scaled-down worker axis of the Fig 6 panels (the
// paper uses 64..192 on a 20-server cluster).
var workerSweep = []int{16, 32, 48}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.Table1(32)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Table 1", out)
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 1", out)
	}
}

// benchPanel runs one Fig 6 worker sweep.
func benchPanel(b *testing.B, idx int) {
	b.Helper()
	panel := harness.Fig6Panels()[idx]
	for i := 0; i < b.N; i++ {
		out, err := harness.Fig6(panel, workerSweep)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 6("+panel.Panel+")", out)
	}
}

func BenchmarkFig6a_SSSPTraffic(b *testing.B)        { benchPanel(b, 0) }
func BenchmarkFig6b_SSSPFriendster(b *testing.B)     { benchPanel(b, 1) }
func BenchmarkFig6c_CCTraffic(b *testing.B)          { benchPanel(b, 2) }
func BenchmarkFig6d_CCFriendster(b *testing.B)       { benchPanel(b, 3) }
func BenchmarkFig6e_PageRankFriendster(b *testing.B) { benchPanel(b, 4) }
func BenchmarkFig6f_PageRankUKWeb(b *testing.B)      { benchPanel(b, 5) }
func BenchmarkFig6g_CFMovieLens(b *testing.B)        { benchPanel(b, 6) }
func BenchmarkFig6h_CFNetflix(b *testing.B)          { benchPanel(b, 7) }

func BenchmarkFig6i_ScaleUpSSSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.Fig6ScaleUp("sssp", []int{16, 24, 32, 40})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 6(i)", out)
	}
}

func BenchmarkFig6j_ScaleUpPageRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.Fig6ScaleUp("pagerank", []int{16, 24, 32, 40})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 6(j)", out)
	}
}

func BenchmarkFig6k_PartitionSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.Fig6k(16, []float64{1, 3, 5, 7, 9})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 6(k)", out)
	}
}

func BenchmarkFig6l_LargeScaleSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.Fig6l([]int{32, 48, 64})
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 6(l)", out)
	}
}

func BenchmarkExp2_Communication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.Exp2Comm(32)
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Exp-2", out)
	}
}

func BenchmarkFig7_PageRankCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Figure 7", out)
	}
}

func BenchmarkCFCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := harness.CFCase()
		if err != nil {
			b.Fatal(err)
		}
		report(b, "Appendix B CF", out)
	}
}

// BenchmarkEngineSSSP measures raw concurrent-engine throughput (not a
// paper figure; a sanity benchmark of the real engine).
func BenchmarkEngineSSSP(b *testing.B) {
	ds := harness.FriendsterSim(1)
	p, err := harness.SkewPartition(ds, 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(p, sssp.Job(ds.Source), core.Options{Mode: core.AAP}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorPageRank measures virtual-time simulator throughput.
func BenchmarkSimulatorPageRank(b *testing.B) {
	ds := harness.FriendsterSim(1)
	p, err := harness.SkewPartition(ds, 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, pagerank.Job(pagerank.Config{Tol: 1e-4}), sim.Config{Options: core.Options{Mode: core.AAP}}); err != nil {
			b.Fatal(err)
		}
	}
}
