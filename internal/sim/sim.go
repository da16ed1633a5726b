// Package sim is the deterministic virtual-time cluster simulator: it
// runs the concurrent engine's own workers, controllers and coordinator
// (core.Simulate), but steps them from a discrete-event clock with an
// explicit cost model — per-round duration proportional to the work the
// program reports, scaled by a per-worker speed factor, plus a fixed
// message latency. This package is that clock and that cost model, and
// the Recorder that traces a run of either driver for RenderTrace.
//
// The simulator reproduces the paper's timing figures (Fig 1, Fig 7, and
// every "time vs workers" plot) deterministically on one machine: the
// phenomena AAP exploits — stragglers, stale rounds, idle time — are
// functions of relative worker progress, which the cost model preserves.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"aap/internal/core"
	"aap/internal/partition"
)

// Config parameterizes a simulated run.
type Config struct {
	// Options configures the engine, checkpoints and fault plan included;
	// core.Simulate refuses what virtual time cannot model.
	Options core.Options

	// RoundOverhead is the fixed virtual seconds per round, and
	// WorkUnitCost the virtual seconds per unit of work reported through
	// Context.AddWork. Defaults: 0.002 and 2e-5, calibrated so that the
	// computation cost of a skewed fragment dominates the per-round
	// overhead, as on the paper's clusters.
	RoundOverhead float64
	WorkUnitCost  float64
	// MsgLatency is the virtual seconds a designated message spends in
	// flight. Default: 0.005.
	MsgLatency float64
	// Speed scales the duration of worker i's rounds (1 = nominal,
	// 2 = twice as slow — a straggler). Nil means all 1; otherwise one
	// positive finite factor per worker.
	Speed []float64
}

func (c Config) withDefaults() Config {
	if c.RoundOverhead == 0 {
		c.RoundOverhead = 0.002
	}
	if c.WorkUnitCost == 0 {
		c.WorkUnitCost = 2e-5
	}
	if c.MsgLatency == 0 {
		c.MsgLatency = 0.005
	}
	return c
}

// Run simulates job over p under cfg and returns the assembled result,
// its statistics in virtual seconds. A Recorder in cfg.Options.Observe
// keeps its trace.
func Run[T any](p *partition.Partitioned, job core.Job[T], cfg Config) (*core.Result[T], error) {
	cfg = cfg.withDefaults()
	if cfg.Speed != nil && len(cfg.Speed) != p.M {
		return nil, fmt.Errorf("sim: Config.Speed has %d factors for %d workers", len(cfg.Speed), p.M)
	}
	for i, f := range cfg.Speed {
		if !(f > 0 && f <= math.MaxFloat64) {
			return nil, fmt.Errorf("sim: Config.Speed[%d] = %v, want a positive finite factor", i, f)
		}
	}
	return core.Simulate(p, job, cfg.Options, &timeline{cfg: cfg})
}

// event is something due at virtual time t; seq breaks ties in queueing
// order, which is what makes a run repeatable.
type event struct {
	t   float64
	seq int64
	f   func()
}

// timeline is the core.Timeline of a run: the event heap, the clock and
// the cost model of cfg.
type timeline struct {
	cfg    Config
	now    float64
	seq    int64
	events []event
}

func (tl *timeline) Len() int { return len(tl.events) }
func (tl *timeline) Less(i, j int) bool {
	a, b := tl.events[i], tl.events[j]
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}
func (tl *timeline) Swap(i, j int)      { tl.events[i], tl.events[j] = tl.events[j], tl.events[i] }
func (tl *timeline) Push(x interface{}) { tl.events = append(tl.events, x.(event)) }
func (tl *timeline) Pop() interface{} {
	e := tl.events[len(tl.events)-1]
	tl.events[len(tl.events)-1] = event{} // drop the closure
	tl.events = tl.events[:len(tl.events)-1]
	return e
}

func (tl *timeline) Now() float64        { return tl.now }
func (tl *timeline) MsgLatency() float64 { return tl.cfg.MsgLatency }

func (tl *timeline) After(d float64, f func()) {
	heap.Push(tl, event{t: tl.now + d, seq: tl.seq, f: f})
	tl.seq++
}

func (tl *timeline) Next() bool {
	if len(tl.events) == 0 {
		return false
	}
	e := heap.Pop(tl).(event)
	tl.now = e.t
	e.f()
	return true
}

// StartRound is the cost model: a round takes the fixed overhead plus its
// reported work, scaled by the worker's speed factor.
func (tl *timeline) StartRound(worker int, work int64) float64 {
	dur := tl.cfg.RoundOverhead + float64(work)*tl.cfg.WorkUnitCost
	if tl.cfg.Speed != nil {
		dur *= tl.cfg.Speed[worker]
	}
	return dur
}
