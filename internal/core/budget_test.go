package core_test

// Tests of a Session's compute budget: its concurrent queries share the
// Session's GOMAXPROCS executors, a query that ends early leaves none of
// them busy, and a task that keeps waking itself goes behind the ready
// tasks of the other queries.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/partition"
)

// computeProbe holds a count of the steps computing right now, across
// every query that shares it, up for about a millisecond per PEval and
// IncEval, and keeps the count's peak and the peak of the process's
// goroutines. Each worker wakes itself for `rounds` rounds.
type computeProbe struct {
	f                *partition.Fragment
	now, peak, gpeak *atomic.Int32
	rounds           int32
}

// raise lifts peak to n if n is higher.
func raise(peak *atomic.Int32, n int32) {
	for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
	}
}

func (c *computeProbe) compute(ctx *core.Context[float64]) {
	raise(c.peak, c.now.Add(1))
	raise(c.gpeak, int32(runtime.NumGoroutine()))
	time.Sleep(time.Millisecond)
	c.now.Add(-1)
	if ctx.Round() < c.rounds {
		ctx.Send(c.f.Lo, 1)
	}
}

func (c *computeProbe) PEval(ctx *core.Context[float64])                           { c.compute(ctx) }
func (c *computeProbe) IncEval(_ []core.VMsg[float64], ctx *core.Context[float64]) { c.compute(ctx) }
func (c *computeProbe) Get(int32) float64                                          { return 0 }

// TestSessionComputeBoundedByCores: four concurrent queries of eight
// workers each on one Session never compute more than GOMAXPROCS steps
// at once, because their workers all run on the Session's GOMAXPROCS
// executors; with executors per query the peak would reach queries ×
// GOMAXPROCS. Nor does a query add goroutines of its own: while they
// run, the goroutines above the count before them are at most the
// executors, the four query goroutines and two more (a δ hold's expiry
// firing), and once they have returned the count falls back, so no
// executor outlives the work.
func TestSessionComputeBoundedByCores(t *testing.T) {
	const procs, queries, m = 2, 4, 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	p, err := partition.Build(gen.PowerLaw(400, 5, 2.1, true, 7), m, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(p)
	var now, peak, gpeak atomic.Int32
	job := core.Job[float64]{
		Name: "compute-probe",
		New: func(f *partition.Fragment) core.Program[float64] {
			return &computeProbe{f: f, now: &now, peak: &peak, gpeak: &gpeak, rounds: 3}
		},
		Aggregate: math.Min,
	}
	errs := make([]error, queries)
	var wg sync.WaitGroup
	base := runtime.NumGoroutine()
	for q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[q] = core.Query(s, job, core.Options{Deadline: 30 * time.Second})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := peak.Load(); got > procs {
		t.Fatalf("%d queries of %d workers on one Session computed %d steps at once, want ≤ GOMAXPROCS = %d", queries, m, got, procs)
	}
	if extra := int(gpeak.Load()) - base; extra > procs+queries+2 {
		t.Fatalf("%d goroutines above the %d before %d queries, want at most %d", extra, base, queries, procs+queries+2)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after the queries returned, %d before them", runtime.NumGoroutine(), base)
		}
	}
}

// panicProg panics in PEval.
type panicProg struct{}

func (panicProg) PEval(*core.Context[float64])                         { panic("probe") }
func (panicProg) IncEval([]core.VMsg[float64], *core.Context[float64]) {}
func (panicProg) Get(int32) float64                                    { return 0 }

// TestSessionFailedQueriesReturnSlots: under one core a Session has one
// executor, so a query that ended early still holding it would leave
// every later query waiting out its deadline. After a query fails
// by MaxRounds, by its Deadline and by a panic in its Program, ordinary
// queries on the same Session, alone and two at once, still finish with
// the reference answer bit for bit.
func TestSessionFailedQueriesReturnSlots(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := partition.Build(gen.PowerLaw(300, 5, 2.1, true, 4), 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	dijkstra := ref.SSSP(p.G, 0)
	s := core.NewSession(p)
	ordinary := func() error {
		res, err := core.Query(s, sssp.Job(0), core.Options{Deadline: 10 * time.Second})
		if err != nil {
			return err
		}
		for v, want := range dijkstra {
			if math.Float64bits(res.Values[v]) != math.Float64bits(want) {
				return fmt.Errorf("vertex %d: %v, reference %v", v, res.Values[v], want)
			}
		}
		return nil
	}
	panicJob := core.Job[float64]{
		Name:      "panic",
		New:       func(*partition.Fragment) core.Program[float64] { return panicProg{} },
		Aggregate: math.Min,
	}
	for _, c := range []struct {
		name string
		job  core.Job[float64]
		opts core.Options
	}{
		{"MaxRounds", tickerJob(1000), core.Options{MaxRounds: 5, Deadline: 10 * time.Second}},
		{"Deadline", tickerJob(math.MaxInt32), core.Options{MaxRounds: math.MaxInt32, Deadline: 50 * time.Millisecond}},
		{"panic", panicJob, core.Options{Deadline: 10 * time.Second}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := core.Query(s, c.job, c.opts)
			if err == nil || c.name == "Deadline" && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s query: error %v", c.name, err)
			}
			if err := ordinary(); err != nil {
				t.Fatal(err)
			}
			var errs [2]error
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = ordinary()
				}()
			}
			wg.Wait()
			if err := errors.Join(errs[:]...); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// spinner's one worker wakes itself every round until stop is set.
type spinner struct {
	f    *partition.Fragment
	stop *atomic.Bool
}

func (sp *spinner) PEval(ctx *core.Context[float64]) { ctx.Send(sp.f.Lo, 1) }
func (sp *spinner) IncEval(_ []core.VMsg[float64], ctx *core.Context[float64]) {
	if !sp.stop.Load() {
		ctx.Send(sp.f.Lo, 1)
	}
}
func (sp *spinner) Get(int32) float64 { return 0 }

// TestSessionLoopingTaskYields: under one core, a one-worker query that
// wakes itself round after round holds the Session's one executor, and
// a short SSSP query started beside it must still get the executor and
// finish first: the looping task goes behind a ready task of any query,
// not only behind a task of its own run. The looping query stops
// only once the SSSP query has answered, so had the SSSP query waited
// for its end, both would run into the looping query's deadline.
func TestSessionLoopingTaskYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := partition.Build(gen.PowerLaw(300, 5, 2.1, true, 4), 1, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	dijkstra := ref.SSSP(p.G, 0)
	s := core.NewSession(p)
	var stop atomic.Bool
	looping := make(chan struct{})
	var once sync.Once
	spin := core.Job[float64]{
		Name:      "spin",
		New:       func(f *partition.Fragment) core.Program[float64] { return &spinner{f: f, stop: &stop} },
		Aggregate: math.Min,
	}
	errc := make(chan error, 1)
	go func() {
		_, err := core.Query(s, spin, core.Options{
			MaxRounds: math.MaxInt32,
			Deadline:  5 * time.Second,
			Observe: func(ev core.Event) {
				if ev.Kind == core.RoundStart && ev.Round >= 10 {
					once.Do(func() { close(looping) })
				}
			},
		})
		errc <- err
	}()
	<-looping
	res, err := core.Query(s, sssp.Job(0), core.Options{Deadline: 10 * time.Second})
	stop.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("looping query: %v; the SSSP query should have finished while it looped", err)
	}
	for v, want := range dijkstra {
		if math.Float64bits(res.Values[v]) != math.Float64bits(want) {
			t.Fatalf("vertex %d: %v, reference %v", v, res.Values[v], want)
		}
	}
}
