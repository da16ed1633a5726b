package algo_test

// Differential tests of the batched multi-source SSSP kernel: every
// lane of one batched run must be bit-identical to a separate
// single-source run (the serving plane's correctness contract), and the
// batch must actually amortize — the scan counters must show at least a
// 2x reduction in scanned edges versus the per-source runs for k >= 4.

import (
	"fmt"
	"sync"
	"testing"

	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

// multiSources is the shared source batch; ids stay below the smallest
// differential corpus (150 vertices).
var multiSources = []graph.VertexID{0, 7, 19, 42, 88, 101}

// runEngine is a small engine harness: run the job over p in AAP mode.
func runEngine[T any](t *testing.T, p *partition.Partitioned, job core.Job[T]) *core.Result[T] {
	t.Helper()
	res, err := core.Run(p, job, core.Options{Mode: core.AAP})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMultiSourceSSSPMatchesSingleRuns: lane l of the batched run must
// equal a single-source run from Sources[l] bit for bit, across the
// differential corpora, fragment counts, and forced kernel shards —
// including against the sequential Dijkstra reference, so the lanes
// inherit the whole cross-kernel equivalence class.
func TestMultiSourceSSSPMatchesSingleRuns(t *testing.T) {
	for name, g := range diffGraphs() {
		for _, m := range []int{1, 3} {
			p, err := partition.Build(g, m, partition.Hash{})
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]float64, len(multiSources))
			for l, src := range multiSources {
				want[l] = runEngine(t, p, sssp.RefJob(src)).Values
			}
			for _, shards := range []int{1, 2, 4} {
				res := runEngine(t, p, sssp.MultiJob(sssp.MultiConfig{
					Sources: multiSources, Shards: shards,
				}))
				for l := range multiSources {
					bitsEqualF64(t,
						fmt.Sprintf("multi/%s/m=%d/shards=%d/lane=%d", name, m, shards, l),
						sssp.Lane(res.Values, l), want[l])
				}
			}
		}
	}
}

// TestMultiSourceSSSPDuplicateAndMissingSources: duplicate sources get
// identical lanes, and a source absent from the graph leaves its lane
// all-Inf without disturbing the others.
func TestMultiSourceSSSPDuplicateAndMissingSources(t *testing.T) {
	g := gen.Grid(12, 12, 5)
	p, err := partition.Build(g, 2, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []graph.VertexID{3, 3, 99999}
	res := runEngine(t, p, sssp.MultiJob(sssp.MultiConfig{Sources: srcs, Shards: 2}))
	want := runEngine(t, p, sssp.RefJob(3)).Values
	bitsEqualF64(t, "dup/lane0", sssp.Lane(res.Values, 0), want)
	bitsEqualF64(t, "dup/lane1", sssp.Lane(res.Values, 1), want)
	for v, d := range sssp.Lane(res.Values, 2) {
		if d != sssp.Inf {
			t.Fatalf("missing-source lane: vertex %d got %v, want +Inf", v, d)
		}
	}
}

// TestMultiSourceSSSPScanAmortization: the acceptance gate of the
// batching plane — one batched run over k >= 4 sources must scan at
// least 2x fewer edges than the k single-source runs it replaces, as
// measured by the kernels' own ScanCounter totals surfaced in RunStats.
// A union-frontier batch only shares a CSR row read among the lanes
// that improved the slot in the same round, so the ratio is a
// coincidence property of the workload: it grows with k, with source
// affinity, and with the small-world structure that puts most vertices
// at the same wave depth from every batch source (the MS-BFS
// observation). The gate here uses k=8 clustered sources on a
// heavy-tailed graph — the serving scenario the scheduler's batching
// targets — plus a weighted grid as the deep-frontier case; both clear
// 2x with margin (and ~4x single-fragment, measured stable over
// repeated trials).
func TestMultiSourceSSSPScanAmortization(t *testing.T) {
	clustered := make([]graph.VertexID, 8)
	for i := range clustered {
		clustered[i] = graph.VertexID(i)
	}
	pl := gen.PowerLaw(3000, 12, 2.0, true, 41)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		m    int
	}{
		{"powerlaw/m=1", pl, 1},
		{"powerlaw/m=2", pl, 2},
		{"grid/m=2", gen.Grid(40, 40, 9), 2},
	} {
		p, err := partition.Build(tc.g, tc.m, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		var single int64
		for _, src := range clustered {
			res := runEngine(t, p, sssp.JobShards(src, 2))
			if res.Stats.ScannedEdges <= 0 {
				t.Fatalf("%s: single-source run reported %d scanned edges", tc.name, res.Stats.ScannedEdges)
			}
			single += res.Stats.ScannedEdges
		}
		res := runEngine(t, p, sssp.MultiJob(sssp.MultiConfig{Sources: clustered, Shards: 2}))
		batched := res.Stats.ScannedEdges
		if batched <= 0 {
			t.Fatalf("%s: batched run reported %d scanned edges", tc.name, batched)
		}
		if 2*batched > single {
			t.Fatalf("%s: batched run scanned %d edges, %d single runs scanned %d — amortization below 2x",
				tc.name, batched, len(clustered), single)
		}
		t.Logf("%s: k=%d amortization %.2fx (%d batched vs %d single)",
			tc.name, len(clustered), float64(single)/float64(batched), batched, single)
	}
}

// TestMultiSourceLaneVectorsDoNotAlias: flushBorder carves the lane
// vectors of one flush from a shared block and ships them to different
// workers, whose folds then aggregate into them in place, concurrently.
// Every vector must be k lanes with no spare capacity, and folding a
// lower vector into every other message — one goroutine per
// destination, so -race sees any overlap — must leave the untouched
// neighbours exactly as shipped.
func TestMultiSourceLaneVectorsDoNotAlias(t *testing.T) {
	g := gen.PowerLaw(600, 6, 2.1, true, 11)
	p, err := partition.Build(g, 3, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		job := sssp.MultiJob(sssp.MultiConfig{Sources: multiSources, Shards: shards})
		k := len(multiSources)
		f := p.Frags[0]
		ctx := core.NewEngineContext[[]float64](f, p.M)
		job.New(f).PEval(ctx)
		out, _ := ctx.TakeOut()

		busy := 0
		var wg sync.WaitGroup
		for j, msgs := range out {
			if len(msgs) < 2 {
				continue
			}
			busy++
			wg.Add(1)
			go func() {
				defer wg.Done()
				shipped := make([][]float64, len(msgs))
				buf := append([]core.VMsg[[]float64](nil), msgs...)
				for i, m := range msgs {
					if len(m.Val) != k || cap(m.Val) != k {
						t.Errorf("shards=%d: vector for vertex %d has len %d cap %d, want %d and %d",
							shards, m.V, len(m.Val), cap(m.Val), k, k)
					}
					shipped[i] = append([]float64(nil), m.Val...)
					if i%2 == 0 {
						low := make([]float64, k)
						for l := range low {
							low[l] = -1
						}
						buf = append(buf, core.VMsg[[]float64]{V: m.V, Val: low})
					}
				}
				folded, err := core.NewFolder[[]float64](p.Frags[j]).Fold(buf, job.Aggregate)
				if err != nil {
					t.Error(err)
				}
				if len(folded) != len(msgs) {
					t.Errorf("shards=%d: folded %d messages to %d vertices, want %d", shards, len(buf), len(folded), len(msgs))
				}
				for i, m := range msgs {
					for l, d := range m.Val {
						want := shipped[i][l]
						if i%2 == 0 {
							want = -1
						}
						if d != want {
							t.Errorf("shards=%d: vertex %d lane %d = %v after the fold, want %v", shards, m.V, l, d, want)
						}
					}
				}
			}()
		}
		wg.Wait()
		if busy < 2 {
			t.Fatalf("shards=%d: only %d destinations got a flush of two or more vectors", shards, busy)
		}
	}
}
