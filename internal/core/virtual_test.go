package core

import (
	"math"
	"reflect"
	"testing"

	"aap/internal/partition"
)

// listTimeline is the smallest Timeline: an unsorted event list, a fixed
// round cost, and a record of when each round started.
type listTimeline struct {
	now, latency float64
	seq          int
	evs          []listEvent
	starts       []float64
}

type listEvent struct {
	t   float64
	seq int
	f   func()
}

func (tl *listTimeline) Now() float64        { return tl.now }
func (tl *listTimeline) MsgLatency() float64 { return tl.latency }

func (tl *listTimeline) After(d float64, f func()) {
	tl.evs = append(tl.evs, listEvent{tl.now + d, tl.seq, f})
	tl.seq++
}

func (tl *listTimeline) Next() bool {
	if len(tl.evs) == 0 {
		return false
	}
	first := 0
	for i, e := range tl.evs {
		if e.t < tl.evs[first].t || e.t == tl.evs[first].t && e.seq < tl.evs[first].seq {
			first = i
		}
	}
	e := tl.evs[first]
	tl.evs = append(tl.evs[:first], tl.evs[first+1:]...)
	tl.now = e.t
	e.f()
	return true
}

func (tl *listTimeline) StartRound(worker int, work int64) float64 {
	tl.starts = append(tl.starts, tl.now)
	return 1
}

// quiet is a Program that computes and sends nothing.
type quiet struct{}

func (quiet) PEval(*Context[float64])                    {}
func (quiet) IncEval([]VMsg[float64], *Context[float64]) {}
func (quiet) Get(int32) float64                          { return 0 }

func quietJob() Job[float64] {
	return Job[float64]{
		Name:      "quiet",
		New:       func(*partition.Fragment) Program[float64] { return quiet{} },
		Aggregate: math.Min,
	}
}

// scripted answers Delay with its delays in turn, the last one for good.
type scripted struct {
	delays []float64
	calls  int
}

func (s *scripted) Delay(View) float64 {
	d := s.delays[min(s.calls, len(s.delays)-1)]
	s.calls++
	return d
}

// TestDecideUnderVirtualClock pins the one decision function and what the
// scheduler makes of each answer when Simulate's event loop runs its
// steps, with no goroutine anywhere: worker 0 of two is past PEval and
// decides at t = 0; worker 1 is past PEval too, with nothing to do.
func TestDecideUnderVirtualClock(t *testing.T) {
	for _, c := range []struct {
		name     string
		buffered bool      // a message waits in worker 0's inbox at t = 0
		delays   []float64 // δ's successive answers
		arrival  float64   // when positive, one more message lands at this time
		progress bool      // worker 1 completes a round right after the decision

		wantHeld, wantActive bool      // right after the decision at t = 0
		wantQueued           int       // events queued by that decision
		wantStarts           []float64 // when worker 0's rounds started, in the end
		wantDecisions        int       // times δ was consulted, in the end
	}{
		{name: "empty buffer turns inactive without consulting δ"},
		{name: "an arrival reactivates an inactive worker", delays: []float64{0}, arrival: 1,
			wantStarts: []float64{1}, wantDecisions: 1},
		{name: "δ ≤ 0 starts the round now", buffered: true, delays: []float64{0},
			wantActive: true, wantQueued: 1, wantStarts: []float64{0}, wantDecisions: 1},
		{name: "negative δ too", buffered: true, delays: []float64{-3},
			wantActive: true, wantQueued: 1, wantStarts: []float64{0}, wantDecisions: 1},
		{name: "Forever suspends and nothing is queued", buffered: true, delays: []float64{Forever},
			wantHeld: true, wantActive: true, wantDecisions: 1},
		{name: "Forever is decided again when progress changes", buffered: true, delays: []float64{Forever, 0}, progress: true,
			wantHeld: true, wantActive: true, wantStarts: []float64{0}, wantDecisions: 2},
		{name: "δ = d wakes at now + d and runs without asking again", buffered: true, delays: []float64{2},
			wantHeld: true, wantActive: true, wantQueued: 1, wantStarts: []float64{2}, wantDecisions: 1},
		{name: "an earlier arrival supersedes the wake", buffered: true, delays: []float64{2, 5}, arrival: 1,
			wantHeld: true, wantActive: true, wantQueued: 1, wantStarts: []float64{6}, wantDecisions: 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			tl := &listTimeline{latency: c.arrival}
			e := newEngine(NewSession(buildPartition(t, 2)), quietJob(), Options{}, tl)
			w := e.workers[0]
			ctrl := &scripted{delays: c.delays}
			e.ctrl, w.pevalDone, e.workers[1].pevalDone = ctrl, true, true
			send := func() {
				e.ledger.Sent(1, 0)
				e.plane.deliver(1, 0, 0, []VMsg[float64]{{V: w.frag.Lo, Val: 1}})
			}
			if c.buffered {
				tl.latency = 0
				send()
				tl.Next() // lands at t = 0 and decides
				tl.latency = c.arrival
			} else {
				e.sched.wake(w)
			}
			if held := w.isActive && w.task.Load() == taskIdle; held != c.wantHeld || e.coord.active[0].Load() != c.wantActive || w.isActive != c.wantActive {
				t.Fatalf("after the decision: held %v, active at the coordinator %v, at the worker %v; want held %v, active %v",
					held, e.coord.active[0].Load(), w.isActive, c.wantHeld, c.wantActive)
			}
			if len(tl.evs) != c.wantQueued {
				t.Fatalf("the decision queued %d events, want %d", len(tl.evs), c.wantQueued)
			}
			if c.arrival > 0 {
				send()
			}
			if c.progress {
				e.coord.roundDone(1)
				e.sched.sweep()
			}
			for tl.Next() {
				e.sched.sweep()
			}
			if !reflect.DeepEqual(tl.starts, c.wantStarts) {
				t.Errorf("rounds started at %v, want %v", tl.starts, c.wantStarts)
			}
			if ctrl.calls != c.wantDecisions {
				t.Errorf("δ consulted %d times, want %d", ctrl.calls, c.wantDecisions)
			}
			if len(c.wantStarts) > 0 && (e.coord.active[0].Load() || e.coord.rounds[0].Load() != 1) {
				t.Errorf("after its round worker 0 is active %v with %d rounds; want inactive with 1", e.coord.active[0].Load(), e.coord.rounds[0].Load())
			}
		})
	}
}
