package sim_test

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/partition"
	"aap/internal/sim"
	"aap/internal/transport"
)

func TestSimMaxRoundsAborts(t *testing.T) {
	g := gen.Grid(10, 10, 3)
	p := mustPartition(t, g, 4, partition.Hash{})
	_, err := sim.Run(p, pagerank.Job(pagerank.Config{Tol: 1e-12}), sim.Config{Options: core.Options{Mode: core.AP, MaxRounds: 2}})
	if err == nil {
		t.Fatal("expected max-rounds error")
	}
}

// TestSimBadSpeedFailsClosed: a Speed that does not give every worker a
// positive finite factor is refused by name, not run as "speed 1".
func TestSimBadSpeedFailsClosed(t *testing.T) {
	p := mustPartition(t, gen.Grid(10, 10, 3), 4, partition.Hash{})
	for want, speed := range map[string][]float64{
		"3 factors for 4 workers": {1, 1, 2},
		"Speed[1] = 0":            {1, 0, 1, 1},
		"Speed[3] = -2":           {1, 1, 1, -2},
		"Speed[0] = NaN":          {math.NaN(), 1, 1, 1},
		"Speed[2] = +Inf":         {1, 1, math.Inf(1), 1},
	} {
		_, err := sim.Run(p, sssp.Job(0), sim.Config{Options: core.Options{Mode: core.AAP}, Speed: speed})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Speed %v: error %v, want one naming %q", speed, err, want)
		}
	}
}

func TestSimSingleWorker(t *testing.T) {
	g := gen.Grid(10, 10, 5)
	p := mustPartition(t, g, 1, partition.Hash{})
	res, err := sim.Run(p, sssp.Job(0), sim.Config{Options: core.Options{Mode: core.AAP}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalMsgs != 0 {
		t.Errorf("single worker sent %d messages", res.Stats.TotalMsgs)
	}
	if res.Stats.MaxRound != 1 {
		t.Errorf("single worker ran %d rounds, want 1 (PEval only)", res.Stats.MaxRound)
	}
}

// TestSimSpeedScalesStragglerTime: doubling a worker's slowdown factor
// increases its busy time proportionally.
func TestSimSpeedScalesStragglerTime(t *testing.T) {
	g := gen.PowerLaw(1000, 6, 2.1, true, 37)
	p := mustPartition(t, g, 4, partition.Range{})
	busy := func(slow float64) float64 {
		res, err := sim.Run(p, sssp.Job(0), sim.Config{Options: core.Options{Mode: core.BSP}, Speed: []float64{slow, 1, 1, 1}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Workers[0].BusySeconds
	}
	b1, b2 := busy(1), busy(2)
	if b2 < 1.8*b1 || b2 > 2.2*b1 {
		t.Errorf("slowdown 2 changed busy time by %.2fx, want ~2x", b2/b1)
	}
}

// TestSimIdlePlusBusyEqualsMakespan: per-worker accounting closes.
func TestSimIdlePlusBusyEqualsMakespan(t *testing.T) {
	g := gen.PowerLaw(500, 5, 2.1, true, 41)
	p := mustPartition(t, g, 6, partition.Hash{})
	res, err := sim.Run(p, sssp.Job(0), sim.Config{Options: core.Options{Mode: core.AAP}})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range res.Stats.Workers {
		if d := math.Abs(w.BusySeconds + w.IdleSeconds - res.Stats.Seconds); d > 1e-9 {
			t.Errorf("worker %d: busy+idle off makespan by %v", i, d)
		}
	}
}

// TestSimStalenessBoundRespected: under SSP with bound c, the recorded
// trace never lets a worker start round r while some active worker is
// more than c rounds behind at that moment. Active is SSP's own word:
// r_min ranges over the workers running or queued, not over one that
// sits idle between rounds with nothing buffered — in the trace, a
// worker is active at an instant that one of its intervals covers, ends
// included (a worker with input queued starts its next round the moment
// the last one ends). The replay allows one round beyond c: the
// controller compares completed rounds, and the slowest worker's current
// round is still in flight. To keep the check from passing vacuously the
// run must also show rounds started c or more ahead with all four
// workers active: the stretch where the bound is what holds the fast
// workers back (unbounded, three of them run 2.5 rounds to the slow
// one's one and the gap only grows).
func TestSimStalenessBoundRespected(t *testing.T) {
	const c = 1
	g := gen.PowerLaw(800, 6, 2.1, false, 43)
	p := mustPartition(t, g, 4, partition.Hash{})
	rec := sim.NewRecorder(p.M)
	_, err := sim.Run(p, pagerank.Job(pagerank.Config{Tol: 1e-6}), sim.Config{
		Options: core.Options{Mode: core.SSP, Staleness: c, Observe: rec.Observe}, Speed: []float64{2.5, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replay the trace in start order; cur[w] is the latest interval of
	// worker w started by the instant under test.
	evs := rec.Intervals()
	slices.SortStableFunc(evs, func(a, b sim.Interval) int { return cmp.Compare(a.Start, b.Start) })
	byWorker := make([][]sim.Interval, p.M)
	for _, iv := range evs {
		byWorker[iv.Worker] = append(byWorker[iv.Worker], iv)
	}
	started := make([]int, p.M)
	binds := 0
	for _, e := range evs {
		min, active := e.Round, 0
		for w, ivs := range byWorker {
			for started[w] < len(ivs) && ivs[started[w]].Start <= e.Start {
				started[w]++
			}
			if started[w] == 0 {
				continue
			}
			if cur := ivs[started[w]-1]; cur.End() >= e.Start {
				active++
				if cur.Round < min {
					min = cur.Round
				}
			}
		}
		if e.Round-min > c+1 { // bound c plus one in-flight round
			t.Fatalf("worker %d started round %d while min over active workers is %d (c=%d)", e.Worker, e.Round, min, c)
		}
		if active == p.M && e.Round-min >= c {
			binds++
		}
	}
	if binds == 0 {
		t.Fatalf("no round started %d ahead with all %d workers active: the bound never bound", c, p.M)
	}
	t.Logf("%d of %d rounds started at the bound with every worker active", binds, len(evs))
}

// TestSimRefusesWhatItCannotModel: options virtual time cannot play out —
// a transport, link partitions, a wall deadline — fail the run with an
// error naming the field instead of being ignored.
func TestSimRefusesWhatItCannotModel(t *testing.T) {
	p := mustPartition(t, gen.Grid(6, 6, 3), 2, partition.Hash{})
	for field, opts := range map[string]core.Options{
		"Transport":         {Transport: &core.TransportOptions{TCP: true}},
		"Faults.Partitions": {Faults: &core.Faults{Partitions: []transport.Window{{Link: 0, For: time.Second}}}},
		"Deadline":          {Deadline: time.Minute},
	} {
		_, err := sim.Run(p, sssp.Job(0), sim.Config{Options: opts})
		if err == nil || !strings.Contains(err.Error(), "Options."+field) {
			t.Errorf("%s: error %v, want one naming Options.%s", field, err, field)
		}
	}
}
