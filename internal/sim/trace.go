package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"aap/internal/core"
)

// Interval is one round in a trace: Seconds of compute from Start.
type Interval struct {
	Worker  int
	Round   int32
	Start   float64
	Seconds float64
}

// End is the instant the round finished.
func (iv Interval) End() float64 { return iv.Start + iv.Seconds }

// Recorder is the trace of one run, under Run or Simulate: its Observe,
// set as Options.Observe, keeps each worker's rounds and decisions. It
// takes no lock, since calls for one worker never overlap and each
// worker appends only to its own slices; read it once the run returned.
type Recorder struct {
	rounds  [][]Interval
	decides [][]core.Event
}

// NewRecorder returns an empty Recorder for a run of m workers.
func NewRecorder(m int) *Recorder {
	return &Recorder{rounds: make([][]Interval, m), decides: make([][]core.Event, m)}
}

// Observe records the Round and Decide events.
func (r *Recorder) Observe(ev core.Event) {
	switch ev.Kind {
	case core.Round:
		r.rounds[ev.Worker] = append(r.rounds[ev.Worker], Interval{ev.Worker, ev.Round, ev.Time, ev.Seconds})
	case core.Decide:
		r.decides[ev.Worker] = append(r.decides[ev.Worker], ev)
	}
}

// Intervals returns the recorded rounds, worker by worker, each worker's
// in the order it ran them.
func (r *Recorder) Intervals() []Interval { return slices.Concat(r.rounds...) }

// Decides returns worker i's Decide events in the order it made them.
func (r *Recorder) Decides(i int) []core.Event { return r.decides[i] }

// Decisions counts worker i's decisions by what they did: run the next
// round now, hold it for a while, or suspend until progress changes.
func (r *Recorder) Decisions(i int) (now, hold, suspend int) {
	for _, ev := range r.decides[i] {
		switch {
		case ev.Delay <= 0:
			now++
		case math.IsInf(ev.Delay, 1):
			suspend++
		default:
			hold++
		}
	}
	return now, hold, suspend
}

// RenderTrace draws an ASCII timing diagram of a run in the style of
// Figures 1 and 7 of the paper: one row per worker, time running left to
// right, '#' while the worker computes, '.' while it waits. width is the
// number of character columns used for the time axis.
func RenderTrace(trace []Interval, numWorkers int, width int) string {
	var makespan float64
	for _, iv := range trace {
		makespan = max(makespan, iv.End())
	}
	if makespan == 0 || numWorkers == 0 || width <= 0 {
		return "(empty trace)\n"
	}
	rows := make([][]byte, numWorkers)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	clamp := func(c int) int { return min(max(c, 0), width-1) }
	for _, iv := range trace {
		lo := clamp(int(iv.Start / makespan * float64(width)))
		hi := max(lo, clamp(int(math.Ceil(iv.End()/makespan*float64(width)))-1))
		for c := lo; c <= hi; c++ {
			rows[iv.Worker][c] = '#'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %.2f (seconds), '#' computing, '.' waiting\n", makespan)
	for i, row := range rows {
		fmt.Fprintf(&b, "P%-3d |%s|\n", i+1, row)
	}
	return b.String()
}
