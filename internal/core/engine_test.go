package core_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

func mustPartition(t testing.TB, g *graph.Graph, m int, s partition.Strategy) *partition.Partitioned {
	t.Helper()
	p, err := partition.Build(g, m, s)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	return p
}

func modes() []core.Options {
	return []core.Options{
		{Mode: core.AAP},
		{Mode: core.BSP},
		{Mode: core.AP},
		{Mode: core.SSP, Staleness: 2},
		{Mode: core.Hsync},
	}
}

func TestSSSPMatchesDijkstraAllModes(t *testing.T) {
	g := gen.PowerLaw(500, 6, 2.1, true, 1)
	want := ref.SSSP(g, 0)
	for _, m := range []int{1, 2, 4, 8} {
		p := mustPartition(t, g, m, partition.Hash{})
		for _, opts := range modes() {
			opts := opts
			t.Run(fmt.Sprintf("m=%d/%s", m, opts.Mode), func(t *testing.T) {
				res, err := core.Run(p, sssp.Job(0), opts)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < g.NumVertices(); v++ {
					id := p.G.IDOf(int32(v))
					orig, _ := g.IndexOf(id)
					if got, w := res.Values[v], want[orig]; got != w && !(math.IsInf(got, 1) && math.IsInf(w, 1)) {
						t.Fatalf("vertex %d: got %v want %v", id, got, w)
					}
				}
			})
		}
	}
}

func TestCCMatchesUnionFindAllModes(t *testing.T) {
	g := gen.SmallWorld(400, 2, 0.05, false, 2)
	want := ref.CC(g)
	for _, m := range []int{1, 3, 8} {
		p := mustPartition(t, g, m, partition.Hash{})
		for _, opts := range modes() {
			opts := opts
			t.Run(fmt.Sprintf("m=%d/%s", m, opts.Mode), func(t *testing.T) {
				res, err := core.Run(p, cc.Job(), opts)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < g.NumVertices(); v++ {
					id := p.G.IDOf(int32(v))
					orig, _ := g.IndexOf(id)
					if res.Values[v] != want[orig] {
						t.Fatalf("vertex %d: got cid %d want %d", id, res.Values[v], want[orig])
					}
				}
			})
		}
	}
}

func TestPageRankMatchesPowerIteration(t *testing.T) {
	g := gen.PowerLaw(300, 5, 2.1, false, 3)
	want := ref.PageRank(g, 0.85, 1e-9, 500)
	for _, m := range []int{1, 4} {
		p := mustPartition(t, g, m, partition.Range{})
		for _, opts := range modes() {
			opts := opts
			t.Run(fmt.Sprintf("m=%d/%s", m, opts.Mode), func(t *testing.T) {
				res, err := core.Run(p, pagerank.Job(pagerank.Config{Tol: 1e-10}), opts)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < g.NumVertices(); v++ {
					id := p.G.IDOf(int32(v))
					orig, _ := g.IndexOf(id)
					if d := math.Abs(res.Values[v] - want[orig]); d > 1e-5 {
						t.Fatalf("vertex %d: got %v want %v (|Δ|=%g)", id, res.Values[v], want[orig], d)
					}
				}
			})
		}
	}
}

// TestChurchRosserSSSP exercises Theorem 2: runs with seeded random
// message delays, different modes, different worker counts and different
// partition strategies must all converge to the same fixpoint.
func TestChurchRosserSSSP(t *testing.T) {
	g := gen.PowerLaw(400, 5, 2.1, true, 7)
	want := ref.SSSP(g, 0)
	strategies := []partition.Strategy{partition.Hash{}, partition.Range{}, partition.BFSLocality{Seed: 1}}
	for seed := int64(0); seed < 6; seed++ {
		for _, s := range strategies {
			p := mustPartition(t, g, 4+int(seed), s)
			opts := core.Options{
				Mode:     core.Mode(seed % 3), // cycles AAP, BSP, AP
				Faults:   &core.Faults{Seed: seed, DelayProb: 0.5, DelayBy: 2 * time.Millisecond},
				Deadline: time.Minute,
			}
			res, err := core.Run(p, sssp.Job(0), opts)
			if err != nil {
				t.Fatalf("seed %d strategy %s: %v", seed, s.Name(), err)
			}
			for v := 0; v < g.NumVertices(); v++ {
				id := p.G.IDOf(int32(v))
				orig, _ := g.IndexOf(id)
				got, w := res.Values[v], want[orig]
				if got != w && !(math.IsInf(got, 1) && math.IsInf(w, 1)) {
					t.Fatalf("seed %d strategy %s vertex %d: got %v want %v", seed, s.Name(), id, got, w)
				}
			}
		}
	}
}

// TestRunGoroutinesBoundedByPool: a run's workers are tasks on the
// Session's executors, at most GOMAXPROCS, so its goroutines do not grow
// with the worker count — at 32 workers there are the executors and at
// most two more (a δ hold's expiry firing). Sampled from inside a round
// of worker 0; no kernel starts a goroutine of its own.
func TestRunGoroutinesBoundedByPool(t *testing.T) {
	const m = 32
	p := mustPartition(t, gen.Grid(30, 30, 5), m, partition.Hash{})
	peak := 0 // written by worker 0's rounds only; Run joins them before returning
	base := runtime.NumGoroutine()
	_, err := core.Run(p, sssp.Job(0), core.Options{
		Mode: core.AAP,
		Observe: func(ev core.Event) {
			if ev.Kind == core.RoundStart && ev.Worker == 0 && ev.Round >= 1 {
				peak = max(peak, runtime.NumGoroutine())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak == 0 {
		t.Fatal("worker 0 never ran an incremental round")
	}
	procs := runtime.GOMAXPROCS(0)
	if extra := peak - base; extra > procs+2 {
		t.Fatalf("%d goroutines above the %d before Run with %d workers, want at most %d", extra, base, m, procs+2)
	}
}

// TestRunIdlePlusBusyEqualsMakespan: a worker is computing or it is not,
// so per-worker accounting closes on the wall clock as it does in virtual
// time — also with more workers than executors, where a worker waiting
// for one is neither computing nor suspended.
func TestRunIdlePlusBusyEqualsMakespan(t *testing.T) {
	g := gen.PowerLaw(500, 5, 2.1, true, 41)
	p := mustPartition(t, g, 2*runtime.GOMAXPROCS(0)+2, partition.Hash{})
	res, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	for i, w := range st.Workers {
		if d := math.Abs(w.BusySeconds + w.IdleSeconds - st.Seconds); d > 1e-9 {
			t.Errorf("worker %d: busy %v + idle %v off the run's %v s by %v", i, w.BusySeconds, w.IdleSeconds, st.Seconds, d)
		}
	}
	if d := math.Abs(st.TotalBusy + st.TotalIdle - float64(len(st.Workers))*st.Seconds); d > 1e-6 {
		t.Errorf("total busy %v + idle %v off %d × %v s by %v", st.TotalBusy, st.TotalIdle, len(st.Workers), st.Seconds, d)
	}
}

func TestRunStatsPopulated(t *testing.T) {
	g := gen.Grid(20, 20, 1)
	p := mustPartition(t, g, 4, partition.Range{})
	res, err := core.Run(p, cc.Job(), core.Options{Mode: core.AAP})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Job != "cc" || st.Mode != "AAP" {
		t.Errorf("bad labels: %q %q", st.Job, st.Mode)
	}
	if len(st.Workers) != 4 {
		t.Fatalf("want 4 worker stats, got %d", len(st.Workers))
	}
	if st.MaxRound < 1 || st.TotalWork == 0 {
		t.Errorf("suspicious stats: rounds=%d work=%d", st.MaxRound, st.TotalWork)
	}
	if st.TotalMsgs == 0 || st.TotalBytes == 0 {
		t.Errorf("expected cross-fragment traffic, got msgs=%d bytes=%d", st.TotalMsgs, st.TotalBytes)
	}
	if st.Seconds <= 0 {
		t.Errorf("non-positive duration %v", st.Seconds)
	}
}

func TestSingleFragmentNoMessages(t *testing.T) {
	g := gen.Grid(10, 10, 2)
	p := mustPartition(t, g, 1, partition.Hash{})
	res, err := core.Run(p, sssp.Job(0), core.Options{Mode: core.AAP})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalMsgs != 0 {
		t.Errorf("single fragment sent %d messages", res.Stats.TotalMsgs)
	}
	want := ref.SSSP(g, 0)
	for v := range want {
		id := p.G.IDOf(int32(v))
		orig, _ := g.IndexOf(id)
		if res.Values[v] != want[orig] {
			t.Fatalf("vertex %d: got %v want %v", id, res.Values[v], want[orig])
		}
	}
}

func TestUnreachableVerticesStayInfinite(t *testing.T) {
	b := graph.NewBuilder(true)
	b.SetWeighted()
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(2, 3, 1) // disconnected from source 0
	g := b.Build()
	p := mustPartition(t, g, 2, partition.Hash{})
	res, err := core.Run(p, sssp.Job(0), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		id := p.G.IDOf(int32(v))
		d := res.Values[v]
		switch id {
		case 0:
			if d != 0 {
				t.Errorf("source dist %v", d)
			}
		case 1:
			if d != 1 {
				t.Errorf("dist(1)=%v", d)
			}
		default:
			if !math.IsInf(d, 1) {
				t.Errorf("vertex %d should be unreachable, got %v", id, d)
			}
		}
	}
}

func TestMaxRoundsAborts(t *testing.T) {
	g := gen.Grid(8, 8, 3)
	p := mustPartition(t, g, 4, partition.Hash{})
	// A job that ping-pongs forever: every IncEval re-sends.
	job := core.Job[float64]{
		Name: "pingpong",
		New: func(f *partition.Fragment) core.Program[float64] {
			return &pingpong{f: f}
		},
		Aggregate: math.Min,
	}
	_, err := core.Run(p, job, core.Options{MaxRounds: 50, Deadline: 30 * time.Second})
	if err == nil {
		t.Fatal("expected max-rounds error")
	}
}

type pingpong struct{ f *partition.Fragment }

func (p *pingpong) PEval(ctx *core.Context[float64]) {
	for _, v := range p.f.Copies() {
		ctx.Send(v, 1)
	}
}

func (p *pingpong) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	for _, v := range p.f.Copies() {
		ctx.Send(v, float64(ctx.Round()))
	}
	_ = msgs
}

func (p *pingpong) Get(int32) float64 { return 0 }

// stray sends one message for vertex v, which no vertex has, from worker
// 1. Send routes it to the fragment at that end of the vertex range
// (worker 0 below it, the last worker past it), which neither owns nor
// copies it — the shape of a corrupt frame.
type stray struct {
	f *partition.Fragment
	v int32
}

func (s *stray) PEval(ctx *core.Context[float64]) {
	if s.f.ID == 1 {
		ctx.Send(s.v, 1)
	}
}
func (s *stray) IncEval([]core.VMsg[float64], *core.Context[float64]) {}
func (s *stray) Get(int32) float64                                    { return 0 }

// TestNoSlotMessageFailsRun: a message for a vertex its receiver has no
// slot for fails the run, naming the receiver, the sender and the
// vertex, instead of being folded by a second rule and handed to IncEval
// (or, for an id past the last vertex, indexing out of range).
func TestNoSlotMessageFailsRun(t *testing.T) {
	g := gen.Grid(8, 8, 1)
	p := mustPartition(t, g, 3, partition.Hash{})
	for _, c := range []struct {
		v    int32
		want []string
	}{
		{-1, []string{"stray worker 0 round", "from worker 1", "vertex -1"}},
		{64, []string{"stray worker 2 round", "from worker 1", "vertex 64"}},
	} {
		job := core.Job[float64]{
			Name:      "stray",
			New:       func(f *partition.Fragment) core.Program[float64] { return &stray{f: f, v: c.v} },
			Aggregate: math.Min,
		}
		_, err := core.Run(p, job, core.Options{Deadline: 30 * time.Second})
		if err == nil {
			t.Fatalf("a message for vertex %d, which no fragment has a slot for, was accepted", c.v)
		}
		for _, want := range c.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	}
}

func TestFoldMessages(t *testing.T) {
	buf := []core.VMsg[float64]{
		{V: 3, Val: 5},
		{V: 1, Val: 2},
		{V: 3, Val: 4},
		{V: 1, Val: 7},
	}
	out := core.FoldMessages(buf, math.Min)
	if len(out) != 2 {
		t.Fatalf("want 2 folded messages, got %d", len(out))
	}
	if out[0].V != 1 || out[0].Val != 2 {
		t.Errorf("folded[0] = %+v", out[0])
	}
	if out[1].V != 3 || out[1].Val != 4 {
		t.Errorf("folded[1] = %+v", out[1])
	}
	if core.FoldMessages(nil, math.Min) != nil {
		t.Error("empty fold should be nil")
	}
}

// TestMoreWorkersThanExecutors: 16 workers share a pool of 2 executors
// and still reach the exact answer.
func TestMoreWorkersThanExecutors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := gen.PowerLaw(200, 4, 2.1, true, 9)
	p := mustPartition(t, g, 16, partition.Hash{})
	res, err := core.Run(p, sssp.Job(0), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.SSSP(g, 0)
	for v := 0; v < g.NumVertices(); v++ {
		id := p.G.IDOf(int32(v))
		orig, _ := g.IndexOf(id)
		got, w := res.Values[v], want[orig]
		if got != w && !(math.IsInf(got, 1) && math.IsInf(w, 1)) {
			t.Fatalf("vertex %d: got %v want %v", id, got, w)
		}
	}
}
