package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
	"aap/internal/sim"
)

func mustPartition(t testing.TB, g *graph.Graph, m int, s partition.Strategy) *partition.Partitioned {
	t.Helper()
	p, err := partition.Build(g, m, s)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	return p
}

func TestSimSSSPCorrectAllModes(t *testing.T) {
	g := gen.PowerLaw(400, 5, 2.1, true, 11)
	want := ref.SSSP(g, 0)
	p := mustPartition(t, g, 6, partition.Hash{})
	for _, mode := range []core.Mode{core.AAP, core.BSP, core.AP, core.SSP, core.Hsync} {
		t.Run(mode.String(), func(t *testing.T) {
			res, err := sim.Run(p, sssp.Job(0), sim.Config{Options: core.Options{Mode: mode, Staleness: 2}})
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < g.NumVertices(); v++ {
				id := p.G.IDOf(int32(v))
				orig, _ := g.IndexOf(id)
				got, w := res.Values[v], want[orig]
				if got != w && !(math.IsInf(got, 1) && math.IsInf(w, 1)) {
					t.Fatalf("vertex %d: got %v want %v", id, got, w)
				}
			}
		})
	}
}

// TestSimDeterministic: two runs of one configuration agree in everything
// the harness tables print, under every mode and for a min-fold and a
// sum-fold job — the loop underneath is the engine's, atomics, message
// pool and all, and none of that may leak a schedule into virtual time.
// Observing changes nothing: a recorded run's values and statistics are
// an unrecorded run's, and its trace agrees with them — per worker, one
// interval per round and durations that sum to the busy time exactly.
func TestSimDeterministic(t *testing.T) {
	g := gen.PowerLaw(300, 5, 2.1, true, 13)
	p := mustPartition(t, g, 5, partition.Hash{})
	for _, mode := range []core.Mode{core.AAP, core.BSP, core.AP, core.SSP, core.Hsync} {
		for name, job := range map[string]core.Job[float64]{
			"sssp":     sssp.Job(0),
			"pagerank": pagerank.Job(pagerank.Config{Tol: 1e-6}),
		} {
			var recs [2]*sim.Recorder
			var runs [3]*core.Result[float64]
			for i := range runs {
				cfg := sim.Config{Options: core.Options{Mode: mode, Staleness: 2}, Speed: []float64{1, 1, 3, 1, 1}}
				if i < len(recs) {
					recs[i] = sim.NewRecorder(p.M)
					cfg.Options.Observe = recs[i].Observe
				}
				res, err := sim.Run(p, job, cfg)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = res
			}
			for _, r := range runs[1:] {
				if !reflect.DeepEqual(runs[0].Stats, r.Stats) {
					t.Errorf("%s/%s: statistics differ:\n%+v\n%+v", name, mode, runs[0].Stats, r.Stats)
				}
				if !reflect.DeepEqual(runs[0].Values, r.Values) {
					t.Errorf("%s/%s: values differ", name, mode)
				}
			}
			if !reflect.DeepEqual(recs[0].Intervals(), recs[1].Intervals()) {
				t.Errorf("%s/%s: nondeterministic trace", name, mode)
			}
			rounds := make([]int32, p.M)
			busy := make([]float64, p.M)
			for _, iv := range recs[0].Intervals() {
				rounds[iv.Worker]++
				busy[iv.Worker] += iv.Seconds
			}
			for i, w := range runs[0].Stats.Workers {
				if rounds[i] != w.Rounds || busy[i] != w.BusySeconds {
					t.Errorf("%s/%s: worker %d traced %d rounds, %v s busy; stats say %d, %v s",
						name, mode, i, rounds[i], busy[i], w.Rounds, w.BusySeconds)
				}
			}
		}
	}
}

// TestSimSchedulePinned pins the virtual schedule itself, not only its
// repeatability: a small SSSP and a small PageRank job with one worker
// three times slower, under every mode, must reproduce these makespans,
// round sums and message counts exactly. Any change to the order in which
// the scheduler decides, starts and finishes rounds moves at least one.
func TestSimSchedulePinned(t *testing.T) {
	g := gen.PowerLaw(300, 5, 2.1, true, 13)
	p := mustPartition(t, g, 5, partition.Hash{})
	jobs := map[string]core.Job[float64]{
		"sssp":     sssp.Job(0),
		"pagerank": pagerank.Job(pagerank.Config{Tol: 1e-6}),
	}
	for _, c := range []struct {
		job     string
		mode    core.Mode
		seconds float64
		rounds  int64
		msgs    int64
	}{
		{"sssp", core.AAP, 0.08500963525390626, 42, 619},
		{"sssp", core.BSP, 0.08804000000000002, 42, 612},
		{"sssp", core.AP, 0.08146000000000002, 70, 623},
		{"sssp", core.SSP, 0.08822000000000002, 50, 619},
		{"sssp", core.Hsync, 0.09432000000000003, 51, 617},
		{"pagerank", core.AAP, 2.330802453225274, 399, 29644},
		{"pagerank", core.BSP, 1.89782, 403, 29564},
		{"pagerank", core.AP, 1.4916600000000002, 905, 53814},
		{"pagerank", core.SSP, 1.8828000000000005, 413, 30359},
		{"pagerank", core.Hsync, 2.318219999999996, 535, 35427},
	} {
		res, err := sim.Run(p, jobs[c.job], sim.Config{Options: core.Options{Mode: c.mode, Staleness: 2}, Speed: []float64{1, 1, 3, 1, 1}})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.Seconds != c.seconds || st.SumRounds != c.rounds || st.TotalMsgs != c.msgs {
			t.Errorf("%s/%s: %v s, %d rounds, %d msgs; want %v s, %d rounds, %d msgs",
				c.job, c.mode, st.Seconds, st.SumRounds, st.TotalMsgs, c.seconds, c.rounds, c.msgs)
		}
	}
}

// TestSimDecisions reads the controllers off the Decide trace on
// TestSimSchedulePinned's setup: BSP suspends every worker that is ahead
// of the slowest active one, AP never waits, and every AAP hold is
// explained by the View it was decided from: a suspension by predicate S
// being false (c = 2), a finite hold by a straggler waiting out its window
// 0.5·avg t less its idle time. AAP's holds and suspensions per worker are
// logged, the figures a change to its rule is judged by.
func TestSimDecisions(t *testing.T) {
	g := gen.PowerLaw(300, 5, 2.1, true, 13)
	p := mustPartition(t, g, 5, partition.Hash{})
	jobs := map[string]core.Job[float64]{
		"sssp":     sssp.Job(0),
		"pagerank": pagerank.Job(pagerank.Config{Tol: 1e-6}),
	}
	for _, c := range []struct {
		job  string
		mode core.Mode
	}{{"sssp", core.BSP}, {"sssp", core.AP}, {"pagerank", core.BSP}, {"pagerank", core.AP}, {"pagerank", core.AAP}} {
		rec := sim.NewRecorder(p.M)
		cfg := sim.Config{Options: core.Options{Mode: c.mode, Staleness: 2, Observe: rec.Observe}, Speed: []float64{1, 1, 3, 1, 1}}
		if _, err := sim.Run(p, jobs[c.job], cfg); err != nil {
			t.Fatal(err)
		}
		decides, ahead := 0, 0
		for i := 0; i < p.M; i++ {
			for _, ev := range rec.Decides(i) {
				decides++
				switch {
				case c.mode == core.BSP && ev.View.Round > ev.View.RMin:
					ahead++
					if !math.IsInf(ev.Delay, 1) {
						t.Errorf("%s/BSP: worker %d at round %d, r_min %d, got delay %v, want Forever", c.job, i, ev.View.Round, ev.View.RMin, ev.Delay)
					}
				case c.mode == core.AP && ev.Delay != 0:
					t.Errorf("%s/AP: worker %d at round %d got delay %v, want 0", c.job, i, ev.View.Round, ev.Delay)
				case c.mode == core.AAP && ev.Delay > 0:
					v := ev.View
					if math.IsInf(ev.Delay, 1) {
						if v.Round < v.RMax || v.Round-v.RMin <= 2 {
							t.Errorf("%s/AAP: worker %d suspended with S true: %+v", c.job, i, v)
						}
					} else if v.RoundTime <= 1.25*v.AvgRoundTime || ev.Delay != 0.5*v.AvgRoundTime-v.IdleTime {
						t.Errorf("%s/AAP: worker %d held %v, not a straggler's window: %+v", c.job, i, ev.Delay, v)
					}
				}
			}
			if c.mode == core.AAP {
				now, hold, suspend := rec.Decisions(i)
				t.Logf("%s/AAP worker %d: %d run now, %d held, %d suspended", c.job, i, now, hold, suspend)
			}
		}
		if decides == 0 || c.mode == core.BSP && ahead == 0 {
			t.Errorf("%s/%s: %d decisions, %d ahead of r_min: the check saw nothing", c.job, c.mode, decides, ahead)
		}
	}
}

// TestRealTrace: a Recorder on the real engine, whose executors step
// different workers at once, keeps each worker's rounds in start order,
// without overlap, one interval per round; and observing leaves the
// answers of SSSP and CC exact.
func TestRealTrace(t *testing.T) {
	g := gen.PowerLaw(10000, 5, 2.1, true, 47)
	p := mustPartition(t, g, 8, partition.Hash{})
	checkRealTrace(t, p, sssp.Job(0))
	checkRealTrace(t, p, cc.Job())
}

func checkRealTrace[T any](t *testing.T, p *partition.Partitioned, job core.Job[T]) {
	t.Helper()
	plain, err := core.Run(p, job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := sim.NewRecorder(p.M)
	traced, err := core.Run(p, job, core.Options{Observe: rec.Observe})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Values, traced.Values) {
		t.Errorf("%s: observing changed the answer", job.Name)
	}
	byWorker := make([][]sim.Interval, p.M)
	for _, iv := range rec.Intervals() {
		byWorker[iv.Worker] = append(byWorker[iv.Worker], iv)
	}
	for i, ivs := range byWorker {
		if want := traced.Stats.Workers[i].Rounds; len(ivs) != int(want) {
			t.Errorf("%s: worker %d traced %d rounds, ran %d", job.Name, i, len(ivs), want)
		}
		// The gap is checked as a difference of clock readings, which
		// rounds monotonically; prev.End() may round past the reading
		// that ended prev.
		for k := 1; k < len(ivs); k++ {
			if prev, iv := ivs[k-1], ivs[k]; iv.Start-prev.Start < prev.Seconds {
				t.Errorf("%s: worker %d round %d starts at %v, inside round %d (%v + %v s)",
					job.Name, i, iv.Round, iv.Start, prev.Round, prev.Start, prev.Seconds)
			}
		}
	}
}

// TestSimBSPBehavesLikeBarriers checks the BSP special case on a
// workload where every fragment stays active until global convergence
// (PageRank on a power-law graph): active workers move in lockstep, so
// round counts stay close, the straggler is the busiest worker, and the
// fast workers idle more under BSP than under AP.
func TestSimBSPBehavesLikeBarriers(t *testing.T) {
	g := gen.PowerLaw(800, 6, 2.1, false, 17)
	p := mustPartition(t, g, 4, partition.Hash{})
	speed := []float64{1, 1, 1, 2.5}
	job := pagerank.Job(pagerank.Config{Tol: 1e-7})
	bsp, err := sim.Run(p, job, sim.Config{Options: core.Options{Mode: core.BSP}, Speed: speed})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := sim.Run(p, job, sim.Config{Options: core.Options{Mode: core.AP}, Speed: speed})
	if err != nil {
		t.Fatal(err)
	}
	st := bsp.Stats
	if st.MaxRound-st.MinRound > 2 {
		t.Errorf("BSP rounds spread too far: max %d min %d", st.MaxRound, st.MinRound)
	}
	var maxBusy float64
	for _, w := range st.Workers {
		if w.BusySeconds > maxBusy {
			maxBusy = w.BusySeconds
		}
	}
	if st.Workers[3].BusySeconds != maxBusy {
		t.Errorf("straggler is not the busiest worker")
	}
	// Fast workers wait at barriers under BSP; AP never waits, so the
	// fast workers' idle share must be higher under BSP.
	bspIdle := st.Workers[0].IdleSeconds / st.Seconds
	apIdle := ap.Stats.Workers[0].IdleSeconds / ap.Stats.Seconds
	if bspIdle <= apIdle {
		t.Errorf("BSP fast-worker idle share %.2f not above AP's %.2f", bspIdle, apIdle)
	}
}

// TestSimAAPNoSlowerThanBSPWithStraggler checks the headline claim on a
// skewed run: AAP's makespan is no worse than BSP's.
func TestSimAAPNoSlowerThanBSPWithStraggler(t *testing.T) {
	g := gen.PowerLaw(2000, 8, 2.1, true, 19)
	p := mustPartition(t, g, 8, partition.Hash{})
	speed := []float64{1, 1, 1, 1, 1, 1, 1, 4}
	var mk [2]float64
	for i, mode := range []core.Mode{core.AAP, core.BSP} {
		res, err := sim.Run(p, sssp.Job(0), sim.Config{Options: core.Options{Mode: mode}, Speed: speed})
		if err != nil {
			t.Fatal(err)
		}
		mk[i] = res.Stats.Seconds
	}
	if mk[0] > mk[1]*1.05 {
		t.Errorf("AAP (%.3f) slower than BSP (%.3f) on a straggler-heavy run", mk[0], mk[1])
	}
}

func TestSimPageRankMatchesReference(t *testing.T) {
	g := gen.PowerLaw(300, 5, 2.1, false, 23)
	want := ref.PageRank(g, 0.85, 1e-9, 500)
	p := mustPartition(t, g, 4, partition.Hash{})
	for _, mode := range []core.Mode{core.AAP, core.BSP, core.AP} {
		res, err := sim.Run(p, pagerank.Job(pagerank.Config{Tol: 1e-10}), sim.Config{Options: core.Options{Mode: mode}})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			id := p.G.IDOf(int32(v))
			orig, _ := g.IndexOf(id)
			if d := math.Abs(res.Values[v] - want[orig]); d > 1e-5 {
				t.Fatalf("%s vertex %d: got %v want %v", mode, id, res.Values[v], want[orig])
			}
		}
	}
}

// TestSimChurchRosser: different modes and straggler profiles must reach
// identical fixpoints for monotone jobs (Theorem 2).
func TestSimChurchRosser(t *testing.T) {
	g := gen.SmallWorld(500, 3, 0.1, true, 29)
	p := mustPartition(t, g, 7, partition.BFSLocality{})
	var first []int64
	for i, cfg := range []sim.Config{
		{Options: core.Options{Mode: core.AAP}},
		{Options: core.Options{Mode: core.AP}},
		{Options: core.Options{Mode: core.BSP}},
		{Options: core.Options{Mode: core.SSP, Staleness: 1}},
		{Options: core.Options{Mode: core.AAP}, Speed: []float64{5, 1, 1, 1, 1, 1, 1}},
		{Options: core.Options{Mode: core.AP}, Speed: []float64{1, 1, 9, 1, 1, 1, 1}},
		{Options: core.Options{Mode: core.AAP, Staleness: 3}},
	} {
		res, err := sim.Run(p, cc.Job(), cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if first == nil {
			first = res.Values
			continue
		}
		if !reflect.DeepEqual(first, res.Values) {
			t.Fatalf("config %d diverged from first fixpoint", i)
		}
	}
}

func TestTraceRendering(t *testing.T) {
	trace := []sim.Interval{
		{Worker: 0, Round: 0, Start: 0, Seconds: 3},
		{Worker: 1, Round: 0, Start: 0, Seconds: 6},
		{Worker: 0, Round: 1, Start: 4, Seconds: 3},
	}
	s := sim.RenderTrace(trace, 2, 20)
	if s == "(empty trace)\n" {
		t.Fatal("unexpected empty render")
	}
	for _, want := range []string{"P1", "P2", "#"} {
		if !contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	if sim.RenderTrace(nil, 2, 20) != "(empty trace)\n" {
		t.Error("empty trace should render placeholder")
	}
}

// TestSimStragglerReducesRoundsUnderAAP reproduces the mechanism of
// Example 4: under AAP a straggler accumulates updates and converges in
// no more rounds than under AP.
func TestSimStragglerReducesRoundsUnderAAP(t *testing.T) {
	g := gen.PowerLaw(3000, 6, 2.1, true, 31)
	p := mustPartition(t, g, 8, partition.Hash{})
	speed := []float64{1, 1, 1, 1, 1, 1, 1, 6}
	rounds := map[core.Mode]int32{}
	for _, mode := range []core.Mode{core.AAP, core.AP} {
		res, err := sim.Run(p, sssp.Job(0), sim.Config{Options: core.Options{Mode: mode}, Speed: speed})
		if err != nil {
			t.Fatal(err)
		}
		rounds[mode] = res.Stats.Workers[7].Rounds
	}
	if rounds[core.AAP] > rounds[core.AP] {
		t.Errorf("straggler rounds: AAP %d > AP %d", rounds[core.AAP], rounds[core.AP])
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func ExampleRenderTrace() {
	trace := []sim.Interval{
		{Worker: 0, Round: 0, Start: 0, Seconds: 1},
		{Worker: 1, Round: 0, Start: 0, Seconds: 2},
	}
	fmt.Print(sim.RenderTrace(trace, 2, 10))
	// Output:
	// time 0 .. 2.00 (seconds), '#' computing, '.' waiting
	// P1   |#####.....|
	// P2   |##########|
}
