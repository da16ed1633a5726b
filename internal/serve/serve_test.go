package serve

// Scheduler tests: batched SSSP equivalence to dedicated runs,
// admission control shedding, deadline propagation, and the
// recommendation path.

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aap/internal/algo/cf"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

func buildPartition(t *testing.T, g *graph.Graph, m int) *partition.Partitioned {
	t.Helper()
	p, err := partition.Build(g, m, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestServedSSSPMatchesDedicatedRuns: concurrent SSSP queries through
// the batching scheduler are bit-identical to dedicated core.Run calls,
// and under a generous window they actually coalesce.
func TestServedSSSPMatchesDedicatedRuns(t *testing.T) {
	g := gen.PowerLaw(500, 6, 2.1, true, 19)
	p := buildPartition(t, g, 2)
	srv := New(p, WithBatchWindow(20*time.Millisecond), WithBatchMax(4), WithMaxInflight(2))

	sources := []graph.VertexID{0, 1, 2, 3, 4, 5, 6, 7}
	want := make([][]float64, len(sources))
	for i, src := range sources {
		res, err := core.Run(p, sssp.Job(src), core.Options{Mode: core.AAP})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Values
	}

	got := make([][]float64, len(sources))
	stats := make([]core.RunStats, len(sources))
	errs := make([]error, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], stats[i], errs[i] = srv.SSSP(src)
		}()
	}
	wg.Wait()

	batched := false
	for i := range sources {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for v := range want[i] {
			if math.Float64bits(got[i][v]) != math.Float64bits(want[i][v]) {
				t.Fatalf("source %d vertex %d: served %v != dedicated %v",
					sources[i], v, got[i][v], want[i][v])
			}
		}
		if stats[i].BatchSize > 1 {
			batched = true
		}
		if stats[i].BatchSize <= 0 || stats[i].QueueWaitSeconds < 0 {
			t.Fatalf("source %d: serving stats not stamped: %+v", sources[i], stats[i])
		}
	}
	if !batched {
		t.Fatal("no query was served from a batch despite the 20ms window")
	}
	st := srv.Stats()
	if st.Batches <= 0 || st.BatchedQueries != int64(len(sources)) || st.MaxBatch < 2 {
		t.Fatalf("batch counters off: %+v", st)
	}
	if st.Admitted != st.Completed || st.Failed != 0 {
		t.Fatalf("session counters off: %+v", st)
	}
}

// TestBatchWindowZeroRunsImmediately: without a window every query is
// its own engine run, so the scheduler degrades to plain concurrency.
func TestBatchWindowZeroRunsImmediately(t *testing.T) {
	g := gen.Grid(10, 10, 3)
	p := buildPartition(t, g, 1)
	srv := New(p)
	dist, st, err := srv.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchSize != 1 {
		t.Fatalf("BatchSize = %d, want 1", st.BatchSize)
	}
	if len(dist) != g.NumVertices() || dist[0] != 0 {
		t.Fatalf("bad distances: len=%d dist[0]=%v", len(dist), dist[0])
	}
}

// TestAdmissionControlShedsLoad: with one in-flight slot and a
// one-query queue, a burst must see both completions and ErrOverloaded
// rejections, and the counters must account for every query.
func TestAdmissionControlShedsLoad(t *testing.T) {
	g := gen.PowerLaw(800, 6, 2.1, true, 23)
	p := buildPartition(t, g, 2)
	srv := New(p, WithMaxInflight(1), WithQueueDepth(1))

	const burst = 12
	var rejected, completed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := srv.CC()
			switch {
			case err == nil:
				completed.Add(1)
			case errors.Is(err, ErrOverloaded):
				rejected.Add(1)
			default:
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if completed.Load() == 0 {
		t.Fatal("no query completed")
	}
	if rejected.Load() == 0 {
		t.Fatal("no query was shed despite queue depth 1 and a 12-query burst")
	}
	st := srv.Stats()
	if st.Rejected != rejected.Load() || st.Completed != completed.Load() {
		t.Fatalf("counters disagree: %+v vs completed=%d rejected=%d", st, completed.Load(), rejected.Load())
	}
	if st.QueuedNow != 0 {
		t.Fatalf("queue not drained: %+v", st)
	}
}

// TestDeadlinePropagates: a vanishing per-query deadline surfaces as
// context.DeadlineExceeded through the serving path.
func TestDeadlinePropagates(t *testing.T) {
	g := gen.PowerLaw(2000, 8, 2.1, true, 29)
	p := buildPartition(t, g, 4)
	srv := New(p, WithDeadline(time.Nanosecond))
	_, _, err := srv.SSSP(0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRecommendTopK: the CF path trains once, excludes the user's rated
// products, returns k descending scores, and is stable across calls.
func TestRecommendTopK(t *testing.T) {
	const users, products = 120, 30
	r := gen.Bipartite(users, products, 8, 4, 1.0, 7)
	p := buildPartition(t, r.G, 2)
	srv := New(p, WithCF(cf.Config{Users: users, Products: products, Rank: 4, Epochs: 8, Seed: 5}))

	recs, _, err := srv.Recommend(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d recs, want 5", len(recs))
	}
	rated := make(map[int]bool)
	for _, e := range r.TrainEdges {
		if e.Src == 0 {
			rated[int(e.Dst)-users] = true
		}
	}
	for i, rec := range recs {
		if rated[rec.Product] {
			t.Fatalf("rec %d recommends already-rated product %d", i, rec.Product)
		}
		if i > 0 && recs[i-1].Score < rec.Score {
			t.Fatalf("recs not sorted: %v", recs)
		}
	}
	again, _, err := srv.Recommend(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if recs[i] != again[i] {
			t.Fatalf("recommendations unstable across calls: %v vs %v", recs, again)
		}
	}
	if _, _, err := srv.Recommend(-1, 5); err == nil {
		t.Fatal("negative user accepted")
	}
	bare := New(p)
	if _, _, err := bare.Recommend(0, 5); !errors.Is(err, ErrNoCF) {
		t.Fatalf("err = %v, want ErrNoCF", err)
	}
}

// TestPageRankTolFailsSafe: a tolerance PageRank's fixpoint is not
// defined for (no delta is above NaN or +Inf, every delta is above a
// negative one) resolves to the default instead of reaching a query.
func TestPageRankTolFailsSafe(t *testing.T) {
	for _, tol := range []float64{math.NaN(), -1, 0, math.Inf(1), math.Inf(-1)} {
		if got := (config{pagerankTol: tol}).withDefaults().pagerankTol; got != 1e-8 {
			t.Errorf("pagerankTol %v resolved to %v, want the default 1e-8", tol, got)
		}
	}
	if got := (config{pagerankTol: 1e-5}).withDefaults().pagerankTol; got != 1e-5 {
		t.Errorf("pagerankTol 1e-5 resolved to %v", got)
	}
}
