package serve

// Scheduler tests: shared SSSP runs' equivalence to dedicated runs and
// the in-flight cap under them, admission control shedding, deadline
// propagation, and the recommendation path.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aap/internal/algo/cf"
	"aap/internal/algo/ref"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

func buildPartition(t testing.TB, g *graph.Graph, m int) *partition.Partitioned {
	t.Helper()
	p, err := partition.Build(g, m, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// holdPermits takes every in-flight permit of srv, so SSSP runs queue
// until the returned func gives them back.
func holdPermits(srv *Server) (release func()) {
	for range cap(srv.sem) {
		srv.sem <- struct{}{}
	}
	return func() {
		for range cap(srv.sem) {
			<-srv.sem
		}
	}
}

// waitAttached polls until n SSSP queries sit in srv's join map, as the
// starters or the joiners of its runs.
func waitAttached(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		srv.mu.Lock()
		got := 0
		for _, run := range srv.runs {
			got += 1 + len(run.joins)
		}
		srv.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d SSSP queries attached to runs after 20s, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameBits fails unless got is bit-identical to want.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distances, want %d", what, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s vertex %d: served %v != reference %v", what, v, got[v], want[v])
		}
	}
}

// TestServedSSSPMatchesDedicatedRuns: eight concurrent SSSP queries, two
// of them sources asked twice, queue while the test holds every permit,
// so each duplicate joins its source's queued run. Every reply is
// bit-identical to the sequential reference; each distinct source is one
// engine run, shared by its duplicates (BatchSize 2) and nobody else's
// (BatchSize 1); duplicates get slices of their own; and the counters
// account for six runs, two of whose queries were shared.
func TestServedSSSPMatchesDedicatedRuns(t *testing.T) {
	g := gen.PowerLaw(500, 6, 2.1, true, 19)
	p := buildPartition(t, g, 2)
	srv := New(p, WithMaxInflight(2))

	sources := []graph.VertexID{0, 1, 2, 3, 0, 4, 2, 5}
	asked := make(map[graph.VertexID]int)
	for _, src := range sources {
		asked[src]++
	}

	release := holdPermits(srv)
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
	waitAttached(t, srv, len(sources))
	if n := len(srv.runs); n != len(asked) {
		t.Fatalf("%d runs queued for %d distinct sources", n, len(asked))
	}
	release()
	wg.Wait()

	for i, src := range sources {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameBits(t, fmt.Sprintf("query %d (source %d)", i, src), got[i], ref.SSSP(p.G, src))
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
	want0 := slices.Clone(got[4])
	for v := range got[0] {
		got[0][v] = -1
	}
	sameBits(t, "the other duplicate after one was overwritten", got[4], want0)

	st := srv.Stats()
	runs := int64(len(asked))
	if st.Shared != 2 || st.MaxBatch != 2 {
		t.Fatalf("sharing counters off, want Shared 2 and MaxBatch 2: %+v", st)
	}
	if st.Admitted != runs || st.Completed != runs || st.Failed != 0 || st.Active != 0 || st.QueuedNow != 0 {
		t.Fatalf("session counters off, want %d runs: %+v", runs, st)
	}
}

// TestSSSPRespectsInflightCap: four distinct sources under
// WithMaxInflight(1) run one at a time. While the test itself holds the
// one permit, all four queries count as queued and none is in the
// engine; once it lets go, the engine never holds more than one of them;
// and every answer is still right.
func TestSSSPRespectsInflightCap(t *testing.T) {
	g := gen.PowerLaw(3000, 8, 2.1, true, 31)
	p := buildPartition(t, g, 2)
	srv := New(p, WithMaxInflight(1))

	release := holdPermits(srv)
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
	for srv.Stats().QueuedNow != int64(len(sources)) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a run that got past the permit would show by now
	if st := srv.Stats(); st.QueuedNow != int64(len(sources)) || st.Active != 0 {
		t.Fatalf("permit held: %d queued and %d active, want %d and 0", st.QueuedNow, st.Active, len(sources))
	}
	release()

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
		sameBits(t, fmt.Sprintf("source %d", src), got[i], ref.SSSP(p.G, src))
	}
	if maxActive > 1 {
		t.Fatalf("sampled %d engine runs active at once under WithMaxInflight(1)", maxActive)
	}
	if st := srv.Stats(); st.QueuedNow != 0 || st.Completed != int64(len(sources)) || st.Shared != 0 {
		t.Fatalf("after the runs: %+v", st)
	}
}

// TestLoneSSSPQueryRunsAlone: a query nobody joins is its own engine run,
// started at once.
func TestLoneSSSPQueryRunsAlone(t *testing.T) {
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
	sameBits(t, "source 0", dist, ref.SSSP(p.G, 0))
	if s := srv.Stats(); s.Shared != 0 || s.MaxBatch != 1 || s.Admitted != 1 {
		t.Fatalf("counters after one lone query: %+v", s)
	}
}

// TestSSSPAfterHandOutStartsFreshRun: once a run's answers went out, its
// source leaves the join map, so the next query for it is a run of its
// own (Admitted + 1) instead of joining a finished one.
func TestSSSPAfterHandOutStartsFreshRun(t *testing.T) {
	g := gen.PowerLaw(500, 6, 2.1, true, 19)
	p := buildPartition(t, g, 2)
	srv := New(p)

	release := holdPermits(srv)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := srv.SSSP(7); err != nil {
				t.Error(err)
			}
		}()
	}
	waitAttached(t, srv, 2)
	release()
	wg.Wait()
	before := srv.Stats()
	if before.Admitted != 1 || before.Shared != 1 || len(srv.runs) != 0 {
		t.Fatalf("two queries for one source: %+v, %d runs left in the map", before, len(srv.runs))
	}

	dist, st, err := srv.SSSP(7)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "source 7 after the hand-out", dist, ref.SSSP(p.G, 7))
	after := srv.Stats()
	if st.BatchSize != 1 || after.Admitted != before.Admitted+1 || after.Shared != before.Shared {
		t.Fatalf("query after the hand-out: BatchSize %d, counters %+v (before %+v)", st.BatchSize, after, before)
	}
}

// TestSSSPJoinersShareDeadlineError: every query of a run that hit its
// WithDeadline gets the run's context.DeadlineExceeded, joiners as well
// as the query that started it.
func TestSSSPJoinersShareDeadlineError(t *testing.T) {
	g := gen.PowerLaw(2000, 8, 2.1, true, 29)
	p := buildPartition(t, g, 4)
	srv := New(p, WithDeadline(time.Nanosecond))

	const queries = 3
	release := holdPermits(srv)
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = srv.SSSP(0)
		}()
	}
	waitAttached(t, srv, queries)
	release()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("query %d: err = %v, want context.DeadlineExceeded", i, err)
		}
	}
	if st := srv.Stats(); st.Shared != queries-1 || st.Admitted != 1 {
		t.Fatalf("one run for %d queries: %+v", queries, st)
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
// context.DeadlineExceeded through the serving path, and the run counts
// as failed.
func TestDeadlinePropagates(t *testing.T) {
	g := gen.PowerLaw(2000, 8, 2.1, true, 29)
	p := buildPartition(t, g, 4)
	srv := New(p, WithDeadline(time.Nanosecond))
	_, _, err := srv.SSSP(0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if st := srv.Stats(); st.Completed != 0 || st.Failed != 1 {
		t.Fatalf("a deadline-exceeded run counted %d completed, %d failed; want 0 and 1", st.Completed, st.Failed)
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

// TestRecommendRetriesAfterShedTraining: a Recommend shed while the
// server is busy fails with ErrOverloaded and leaves the model untrained,
// not disabled — once the load is gone the next call trains and answers.
func TestRecommendRetriesAfterShedTraining(t *testing.T) {
	const users, products = 120, 30
	r := gen.Bipartite(users, products, 8, 4, 1.0, 7)
	p := buildPartition(t, r.G, 2)
	srv := New(p, WithMaxInflight(1), WithQueueDepth(1),
		WithCF(cf.Config{Users: users, Products: products, Rank: 4, Epochs: 8, Seed: 5}))

	srv.sem <- struct{}{} // the one permit
	queued := make(chan error, 1)
	go func() {
		_, _, err := srv.CC()
		queued <- err
	}()
	for srv.Stats().QueuedNow != 1 {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := srv.Recommend(0, 5); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Recommend with the queue full: err = %v, want ErrOverloaded", err)
	}
	<-srv.sem
	if err := <-queued; err != nil {
		t.Fatal(err)
	}

	recs, st, err := srv.Recommend(0, 5)
	if err != nil {
		t.Fatalf("Recommend once the load is gone: %v", err)
	}
	if len(recs) != 5 || st.BatchSize != 1 {
		t.Fatalf("got %d recs (training run BatchSize %d), want 5 from a fresh training run", len(recs), st.BatchSize)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Score < recs[i].Score {
			t.Fatalf("recs not sorted: %v", recs)
		}
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
