package core_test

// Tests of a Session's compute budget: its concurrent queries share
// GOMAXPROCS execution slots, a query that ends early hands its slots
// back, and a task that keeps waking itself yields its slot to a query
// waiting for one.

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

	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/partition"
)

// computeProbe holds a count of the steps computing right now, across
// every query that shares it, up for about a millisecond per PEval and
// IncEval, and keeps the count's peak. Each worker wakes itself for
// `rounds` rounds.
type computeProbe struct {
	f         *partition.Fragment
	now, peak *atomic.Int32
	rounds    int32
}

func (c *computeProbe) compute(ctx *core.Context[float64]) {
	n := c.now.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
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
// at once. Each query runs its own executors, so without the Session's
// slots the peak reaches queries × GOMAXPROCS.
func TestSessionComputeBoundedByCores(t *testing.T) {
	const procs, queries, m = 2, 4, 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	p, err := partition.Build(gen.PowerLaw(400, 5, 2.1, true, 7), m, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(p)
	var now, peak atomic.Int32
	job := core.Job[float64]{
		Name: "compute-probe",
		New: func(f *partition.Fragment) core.Program[float64] {
			return &computeProbe{f: f, now: &now, peak: &peak, rounds: 3}
		},
		Aggregate: math.Min,
	}
	errs := make([]error, queries)
	var wg sync.WaitGroup
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
}

// panicProg panics in PEval.
type panicProg struct{}

func (panicProg) PEval(*core.Context[float64])                         { panic("probe") }
func (panicProg) IncEval([]core.VMsg[float64], *core.Context[float64]) {}
func (panicProg) Get(int32) float64                                    { return 0 }

// TestSessionFailedQueriesReturnSlots: under one core a Session has one
// execution slot, so a query that ended early still holding it would
// leave every later query waiting out its deadline. After a query fails
// by MaxRounds, by its Deadline and by a panic in its Program, ordinary
// queries on the same Session, alone and two at once, still finish with
// the reference answer bit for bit.
func TestSessionFailedQueriesReturnSlots(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := partition.Build(gen.PowerLaw(300, 5, 2.1, true, 4), 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Run(p, sssp.RefJob(0), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(p)
	ordinary := func() error {
		res, err := core.Query(s, sssp.Job(0), core.Options{Deadline: 10 * time.Second})
		if err != nil {
			return err
		}
		for v, want := range ref.Values {
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
// wakes itself round after round holds the Session's one slot, and a
// short SSSP query started beside it must still get the slot and finish
// first: the looping task yields its slot to a waiting executor of any
// query, not only to a task of its own run. The looping query stops
// only once the SSSP query has answered, so had the SSSP query waited
// for its end, both would run into the looping query's deadline.
func TestSessionLoopingTaskYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := partition.Build(gen.PowerLaw(300, 5, 2.1, true, 4), 1, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Run(p, sssp.RefJob(0), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
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
			RoundHook: func(_ int, round int32) {
				if round >= 10 {
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
	for v, want := range ref.Values {
		if math.Float64bits(res.Values[v]) != math.Float64bits(want) {
			t.Fatalf("vertex %d: %v, reference %v", v, res.Values[v], want)
		}
	}
}
