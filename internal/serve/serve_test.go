package serve

// Scheduler tests: batched SSSP equivalence to dedicated runs and the
// in-flight cap under a batch, admission control shedding, deadline
// propagation, and the recommendation path.

import (
	"context"
	"errors"
	"math"
	"runtime"
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

// TestServedSSSPMatchesDedicatedRuns: eight concurrent SSSP queries, two
// of them sources asked twice, are cut as one batch. Every reply is
// bit-identical to the sequential reference; each distinct source is one
// engine run, shared by its duplicates (BatchSize 2) and nobody else's
// (BatchSize 1); duplicates get slices of their own; and the counters
// account for one batch, eight queries and six runs.
func TestServedSSSPMatchesDedicatedRuns(t *testing.T) {
	g := gen.PowerLaw(500, 6, 2.1, true, 19)
	p := buildPartition(t, g, 2)
	srv := New(p, WithBatchWindow(20*time.Millisecond), WithBatchMax(8), WithMaxInflight(2))

	sources := []graph.VertexID{0, 1, 2, 3, 0, 4, 2, 5}
	asked := make(map[graph.VertexID]int)
	for _, src := range sources {
		asked[src]++
	}
	want := make(map[graph.VertexID][]float64)
	for src := range asked {
		res, err := core.Run(p, sssp.RefJob(src), core.Options{Mode: core.AAP})
		if err != nil {
			t.Fatal(err)
		}
		want[src] = res.Values
	}

	got := make([][]float64, len(sources))
	stats := make([]core.RunStats, len(sources))
	errs := make([]error, len(sources))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], stats[i], errs[i] = srv.SSSP(src)
		}()
	}
	close(start)
	wg.Wait()

	for i, src := range sources {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for v := range want[src] {
			if math.Float64bits(got[i][v]) != math.Float64bits(want[src][v]) {
				t.Fatalf("query %d (source %d) vertex %d: served %v != reference %v",
					i, src, v, got[i][v], want[src][v])
			}
		}
		if stats[i].BatchSize != asked[src] || stats[i].QueueWaitSeconds < 0 {
			t.Fatalf("query %d (source %d, asked %d times): BatchSize %d, queue wait %v",
				i, src, asked[src], stats[i].BatchSize, stats[i].QueueWaitSeconds)
		}
	}
	// Queries 0 and 4 asked for source 0 and shared one run: same scan,
	// separate slices.
	if stats[0].ScannedEdges != stats[4].ScannedEdges {
		t.Fatalf("duplicates report different runs: %d vs %d scanned edges", stats[0].ScannedEdges, stats[4].ScannedEdges)
	}
	for v := range got[0] {
		got[0][v] = -1
	}
	for v, d := range got[4] {
		if math.Float64bits(d) != math.Float64bits(want[0][v]) {
			t.Fatalf("writing one duplicate's reply changed the other's: vertex %d = %v", v, d)
		}
	}

	st := srv.Stats()
	runs := int64(len(asked))
	if st.Batches != 1 || st.BatchedQueries != int64(len(sources)) || st.MaxBatch != int64(len(sources)) {
		t.Fatalf("batch counters off: %+v", st)
	}
	if st.Admitted != runs || st.Completed != runs || st.Failed != 0 || st.Active != 0 || st.QueuedNow != 0 {
		t.Fatalf("session counters off, want %d runs: %+v", runs, st)
	}
}

// TestBatchRespectsInflightCap: a batch of four distinct sources under
// WithMaxInflight(1) runs them one at a time. While the test itself
// holds the one permit, the cut batch's four queries all still count as
// queued and none is in the engine; once it lets go, the engine never
// holds more than one of them; and every answer is still right.
func TestBatchRespectsInflightCap(t *testing.T) {
	g := gen.PowerLaw(3000, 8, 2.1, true, 31)
	p := buildPartition(t, g, 2)
	srv := New(p, WithMaxInflight(1), WithBatchWindow(time.Second), WithBatchMax(4))

	srv.sem <- struct{}{} // the one permit, held until the batch is cut
	sources := []graph.VertexID{0, 1, 2, 3}
	got := make([][]float64, len(sources))
	errs := make([]error, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, errs[i] = srv.SSSP(src)
		}()
	}
	for srv.Stats().Batches == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the cut batch's runs reach the permit
	if st := srv.Stats(); st.QueuedNow != int64(len(sources)) || st.Active != 0 {
		t.Fatalf("batch cut, permit held: %d queued and %d active, want %d and 0", st.QueuedNow, st.Active, len(sources))
	}
	<-srv.sem

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var maxActive int64
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
			maxActive = max(maxActive, srv.Stats().Active)
			runtime.Gosched()
		}
	}

	for i, src := range sources {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		res, err := core.Run(p, sssp.RefJob(src), core.Options{Mode: core.AAP})
		if err != nil {
			t.Fatal(err)
		}
		for v := range res.Values {
			if math.Float64bits(got[i][v]) != math.Float64bits(res.Values[v]) {
				t.Fatalf("source %d vertex %d: served %v != reference %v", src, v, got[i][v], res.Values[v])
			}
		}
	}
	if maxActive > 1 {
		t.Fatalf("sampled %d engine runs active at once under WithMaxInflight(1)", maxActive)
	}
	if st := srv.Stats(); st.QueuedNow != 0 || st.Completed != int64(len(sources)) || st.Batches != 1 {
		t.Fatalf("after the batch: %+v", st)
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
