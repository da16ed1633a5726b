package core_test

// Concurrency tests of the resident Session: many queries in flight on
// ONE Session must produce exactly what the same queries produce as
// serial one-shot core.Run calls — the state-split contract (shared
// plane read-only, per-query state private) pinned under -race.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aap/internal/algo/cc"
	"aap/internal/algo/cf"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

// TestSessionConcurrentQueriesMatchSerial: >= 8 concurrent queries on a
// single Session versus the same queries serial through core.Run — SSSP
// and CC bit-identical (unique exact-min fixpoints), PageRank within
// 1e-4 relative (AAP scheduling reorders its sum). The procs=2 case has
// more queries than cores and more fragments than cores, so the queries'
// workers take turns on the Session's executors.
func TestSessionConcurrentQueriesMatchSerial(t *testing.T) {
	t.Run(oneShard, func(t *testing.T) { concurrentQueriesMatchSerial(t, 3) })
	t.Run("procs=2,M=8", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		t.Run(oneShard, func(t *testing.T) { concurrentQueriesMatchSerial(t, 8) })
	})
}

// concurrentQueriesMatchSerial is TestSessionConcurrentQueriesMatchSerial
// over m fragments at the current GOMAXPROCS.
func concurrentQueriesMatchSerial(t *testing.T, m int) {
	g := gen.PowerLaw(400, 5, 2.1, true, 7)
	und := graph.AsUndirected(g)
	p, err := partition.Build(g, m, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	pu, err := partition.Build(und, m, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Mode: core.AAP}
	sources := []graph.VertexID{0, 1, 2, 3, 40, 50}

	// Serial baselines: fresh one-shot runs, no Session shared.
	wantS := make([][]float64, len(sources))
	for i, src := range sources {
		res, err := core.Run(p, sssp.Job(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		wantS[i] = res.Values
	}
	resP, err := core.Run(p, pagerank.Job(pagerank.Config{Tol: 1e-8}), opts)
	if err != nil {
		t.Fatal(err)
	}
	wantP := resP.Values
	resC, err := core.Run(pu, cc.Job(), opts)
	if err != nil {
		t.Fatal(err)
	}
	wantC := resC.Values

	// Concurrent: 8 queries (6 SSSP + 2 PageRank) race on one
	// Session; 2 CC queries race on the undirected Session.
	s := core.NewSession(p)
	su := core.NewSession(pu)
	gotS := make([][]float64, len(sources))
	gotP := make([][]float64, 2)
	gotC := make([][]int64, 2)
	errs := make([]error, len(sources)+4)
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := core.Query(s, sssp.Job(src), opts)
			if err == nil {
				gotS[i] = res.Values
			}
			errs[i] = err
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := core.Query(s, pagerank.Job(pagerank.Config{Tol: 1e-8}), opts)
			if err == nil {
				gotP[i] = res.Values
			}
			errs[len(sources)+i] = err
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := core.Query(su, cc.Job(), opts)
			if err == nil {
				gotC[i] = res.Values
			}
			errs[len(sources)+2+i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for i := range sources {
		for v := range wantS[i] {
			if math.Float64bits(gotS[i][v]) != math.Float64bits(wantS[i][v]) {
				t.Fatalf("sssp src=%d vertex %d: concurrent %v != serial %v",
					sources[i], v, gotS[i][v], wantS[i][v])
			}
		}
	}
	for i := range gotC {
		for v := range wantC {
			if gotC[i][v] != wantC[v] {
				t.Fatalf("cc query %d vertex %d: concurrent %d != serial %d",
					i, v, gotC[i][v], wantC[v])
			}
		}
	}
	for i := range gotP {
		for v := range wantP {
			diff := math.Abs(gotP[i][v] - wantP[v])
			if rel := diff / math.Max(math.Abs(wantP[v]), 1e-300); rel > 1e-4 {
				t.Fatalf("pagerank query %d vertex %d: relative diff %g > 1e-4", i, v, rel)
			}
		}
	}

	stats := s.Stats()
	if stats.Admitted != 8 || stats.Completed != 8 || stats.Failed != 0 || stats.Active != 0 {
		t.Fatalf("session stats off: %+v", stats)
	}
	if stats.QPS <= 0 || stats.BusySeconds <= 0 {
		t.Fatalf("session rates off: %+v", stats)
	}
}

// TestSessionSharedPlaneUnchanged: queries read a Session's shared plane
// and never write it. A checksum of everything the plane exports — each
// vertex's id, out-neighbours, out-weights, in-neighbours and owner, each
// fragment's range and copy set, and the slot and copy slot every
// fragment gives every vertex — is the same before and after concurrent
// SSSP (one source asked three times, three others once), CC and
// PageRank queries on one Session, on an undirected and on a directed
// graph, and before and after concurrent CF and SSSP queries on a rating
// graph.
//
// A directed graph builds its in-side on the first In, which only CC
// calls: the "before" checksum is taken on a twin built from the same
// input, so on the Session's own graph the concurrent CC queries, racing
// SSSP and PageRank, are the first readers. A second twin whose Session
// runs only SSSP and PageRank must not build its in-side at all.
func TestSessionSharedPlaneUnchanged(t *testing.T) {
	for _, directed := range []bool{false, true} {
		t.Run(fmt.Sprintf("directed=%v", directed), func(t *testing.T) {
			build := func() *partition.Partitioned {
				g := gen.PowerLaw(600, 5, 2.1, true, 11)
				if !directed {
					g = graph.AsUndirected(g)
				}
				p, err := partition.Build(g, 3, partition.Hash{})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			p := build()
			before := planeChecksum(build())
			if directed && p.G.InBuilt() {
				t.Fatal("partitioning built the in-side")
			}
			s := core.NewSession(p)
			opts := core.Options{Mode: core.AAP}
			var queries []func() error
			for _, src := range []graph.VertexID{0, 0, 0, 1, 7, 40} {
				queries = append(queries, func() error {
					_, err := core.Query(s, sssp.Job(src), opts)
					return err
				})
			}
			for range 3 {
				queries = append(queries, func() error {
					_, err := core.Query(s, cc.Job(), opts)
					return err
				}, func() error {
					_, err := core.Query(s, pagerank.Job(pagerank.Config{Tol: 1e-6}), opts)
					return err
				})
			}
			queryAtOnce(t, queries)
			if after := planeChecksum(p); after != before {
				t.Fatalf("shared plane checksum %#x before the queries, %#x after", before, after)
			}
			if !directed {
				return
			}

			q := build()
			sq := core.NewSession(q)
			if _, err := core.Query(sq, sssp.Job(0), opts); err != nil {
				t.Fatal(err)
			}
			if _, err := core.Query(sq, pagerank.Job(pagerank.Config{Tol: 1e-6}), opts); err != nil {
				t.Fatal(err)
			}
			if q.G.InBuilt() {
				t.Fatal("a Session that ran only SSSP and PageRank built its in-side")
			}
		})
	}

	// CF is the one reader of F.I and of the routing index I_i, both
	// derived from the fragments' F.O bitmaps: its queries race SSSP's
	// on one rating Session.
	t.Run("bipartite", func(t *testing.T) {
		const users, products = 300, 60
		build := func() *partition.Partitioned {
			// gen.Bipartite's ratings with each rating r stored as 1 + |r|:
			// SSSP takes positive weights only, CF trains on any.
			r := gen.Bipartite(users, products, 8, 4, 1.0, 13)
			b := graph.NewBuilder(true)
			b.SetWeighted()
			for v := range users + products {
				b.AddVertex(graph.VertexID(v))
			}
			for _, e := range r.TrainEdges {
				b.AddWeightedEdge(e.Src, e.Dst, 1+math.Abs(e.Weight))
			}
			p, err := partition.Build(b.Build(), 3, partition.Hash{})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		p := build()
		before := planeChecksum(build())
		s := core.NewSession(p)
		var queries []func() error
		cfg := cf.Config{Users: users, Products: products, Rank: 4, Epochs: 6, Seed: 5}
		for i := range 3 {
			queries = append(queries, func() error {
				_, err := core.Query(s, cf.Job(cfg), core.Options{Mode: core.AAP, Staleness: 4})
				return err
			}, func() error {
				_, err := core.Query(s, sssp.Job(graph.VertexID(i)), core.Options{Mode: core.AAP})
				return err
			})
		}
		queryAtOnce(t, queries)
		if after := planeChecksum(p); after != before {
			t.Fatalf("shared plane checksum %#x before the queries, %#x after", before, after)
		}
	})
}

// queryAtOnce runs every query on its own goroutine at once and fails
// the test with their errors.
func queryAtOnce(t *testing.T, queries []func() error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for _, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := q(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// planeChecksum hashes the shared plane through its exported accessors,
// the routing the partition derives rather than stores included: each
// vertex's owner and the copy slot, or -1, every fragment gives it.
func planeChecksum(p *partition.Partitioned) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	putAll := func(xs []int32) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(uint64(x))
		}
	}
	g := p.G
	n := int32(g.NumVertices())
	for v := int32(0); v < n; v++ {
		put(uint64(g.IDOf(v)))
		putAll(g.Out(v))
		for _, w := range g.OutWeights(v) {
			put(math.Float64bits(w))
		}
		putAll(g.In(v))
		put(uint64(p.Owner(v)))
	}
	for _, f := range p.Frags {
		put(uint64(f.Lo))
		put(uint64(f.Hi))
		putAll(f.Out)
		for v := int32(0); v < n; v++ {
			put(uint64(f.Slot(v)))
			put(uint64(f.OutSlot(v)))
		}
	}
	return h.Sum64()
}

// TestSessionRunStatsServingFields: every engine run prices its
// per-query arena and harvests the kernels' scan counters into RunStats.
func TestSessionRunStatsServingFields(t *testing.T) {
	g := gen.Grid(16, 16, 3)
	p, err := partition.Build(g, 2, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(p)
	res, err := core.Query(s, sssp.Job(0), core.Options{Mode: core.AAP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ArenaBytes <= 0 {
		t.Fatalf("ArenaBytes = %d, want > 0", res.Stats.ArenaBytes)
	}
	if res.Stats.ScannedEdges <= 0 {
		t.Fatalf("ScannedEdges = %d, want > 0", res.Stats.ScannedEdges)
	}
	if got := s.Partitioned(); got != p {
		t.Fatal("Partitioned() did not return the shared plane")
	}
}

// TestRunIsThinSessionWrapper: the one-shot Run must behave exactly like
// a single-query Session — same values, same serving stats fields.
func TestRunIsThinSessionWrapper(t *testing.T) {
	g := gen.Grid(10, 10, 1)
	p, err := partition.Build(g, 2, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP})
	if err != nil {
		t.Fatal(err)
	}
	two, err := core.Query(core.NewSession(p), sssp.Job(0), core.Options{Mode: core.AAP})
	if err != nil {
		t.Fatal(err)
	}
	for v := range one.Values {
		if math.Float64bits(one.Values[v]) != math.Float64bits(two.Values[v]) {
			t.Fatalf("vertex %d: Run %v != Query %v", v, one.Values[v], two.Values[v])
		}
	}
	if one.Stats.ArenaBytes != two.Stats.ArenaBytes {
		t.Fatalf("ArenaBytes: Run %d != Query %d", one.Stats.ArenaBytes, two.Stats.ArenaBytes)
	}
}

// TestSessionValidatesOncePerJobName: the graph behind a Session never
// changes, so a job's Validate scans it on the first query only — and a
// failed validation keeps being returned, without ever reaching the
// engine. A fresh Session (what core.Run builds) validates again.
func TestSessionValidatesOncePerJobName(t *testing.T) {
	g := gen.Grid(10, 10, 1)
	p, err := partition.Build(g, 2, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	var scans atomic.Int32
	good := sssp.Job(0)
	good.Validate = func(p *partition.Partitioned) error {
		scans.Add(1)
		return sssp.ValidateWeights(p)
	}
	bad := good
	bad.Name = "sssp-bad-weights"
	errBad := errors.New("bad weights")
	bad.Validate = func(*partition.Partitioned) error {
		scans.Add(1)
		return errBad
	}

	s := core.NewSession(p)
	for q := 0; q < 3; q++ {
		if _, err := core.Query(s, good, core.Options{Mode: core.AAP}); err != nil {
			t.Fatal(err)
		}
	}
	if n := scans.Swap(0); n != 1 {
		t.Fatalf("3 valid queries on one Session validated %d times, want 1", n)
	}
	for q := 0; q < 3; q++ {
		if res, err := core.Query(s, bad, core.Options{Mode: core.AAP}); res != nil || !errors.Is(err, errBad) {
			t.Fatalf("query %d of an invalid job: result %v, error %v", q, res, err)
		}
	}
	if n := scans.Swap(0); n != 1 {
		t.Fatalf("3 invalid queries on one Session validated %d times, want 1", n)
	}
	if st := s.Stats(); st.Completed != 3 || st.Failed != 3 {
		t.Fatalf("session counted %d completed, %d failed; want 3 and 3", st.Completed, st.Failed)
	}
	if _, err := core.Run(p, good, core.Options{Mode: core.AAP}); err != nil {
		t.Fatal(err)
	}
	if n := scans.Load(); n != 1 {
		t.Fatalf("core.Run on a fresh Session validated %d times, want 1", n)
	}
}

// TestSessionCountsDeadlineAsFailed: a query cut off by its deadline
// returns a partial result and an error, and SessionStats counts it as
// Failed ("finished with an error"), not Completed.
func TestSessionCountsDeadlineAsFailed(t *testing.T) {
	p, err := partition.Build(gen.PowerLaw(300, 5, 2.1, true, 4), 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(p)
	res, err := core.Query(s, sssp.Job(0), core.Options{
		Mode:     core.AAP,
		Deadline: 200 * time.Millisecond,
		Faults:   &core.Faults{Stall: &core.StallSpec{Worker: 0, Round: 0, For: time.Minute}},
	})
	if res == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled query: result %v, error %v; want a partial result and DeadlineExceeded", res, err)
	}
	if st := s.Stats(); st.Completed != 0 || st.Failed != 1 || st.QPS != 0 {
		t.Fatalf("session counted %d completed, %d failed, qps %v; want 0, 1 and 0", st.Completed, st.Failed, st.QPS)
	}
}
