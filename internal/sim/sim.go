// Package sim is the deterministic virtual-time cluster simulator: it
// executes the same PIE programs as the concurrent engine, but under a
// discrete-event clock with an explicit cost model — per-round duration
// proportional to the work the program reports, scaled by a per-worker
// speed factor, plus a fixed message latency.
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
	// Mode, Staleness and LFloor mirror core.Options.
	Mode      core.Mode
	Staleness int
	LFloor    int

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
	// 2 = twice as slow — a straggler). Nil means all 1.
	Speed []float64

	// MaxRounds aborts runaway computations. Default 1 << 20.
	MaxRounds int32
	// Trace records per-round intervals for timing diagrams.
	Trace bool
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
	if c.MaxRounds <= 0 {
		c.MaxRounds = 1 << 20
	}
	return c
}

// Interval is one executed round in the trace.
type Interval struct {
	Worker int
	Round  int32
	Start  float64
	End    float64
}

// Result is the outcome of a simulated run: the assembled values, the
// run statistics in virtual seconds, and (when requested) the trace.
type Result[T any] struct {
	Values []T
	Stats  core.RunStats
	Trace  []Interval
}

// Run simulates job over p under cfg and returns the assembled result.
func Run[T any](p *partition.Partitioned, job core.Job[T], cfg Config) (*Result[T], error) {
	if job.Validate != nil {
		if err := job.Validate(p); err != nil {
			return nil, err
		}
	}
	cfg = cfg.withDefaults()
	s := newSim(p, job, cfg)
	if err := s.run(); err != nil {
		return nil, err
	}
	stats := core.RunStats{Job: job.Name, Mode: cfg.Mode.String(), Seconds: s.now}
	stats.Workers = make([]core.WorkerStats, p.M)
	for i, w := range s.workers {
		w.stats.IdleSeconds = s.now - w.stats.BusySeconds
		stats.Workers[i] = w.stats
	}
	stats.Finalize()
	progs := make([]core.Program[T], p.M)
	for i, w := range s.workers {
		progs[i] = w.prog
	}
	return &Result[T]{Values: core.Assemble(p, progs), Stats: stats, Trace: s.trace}, nil
}

// wstate is the scheduling state of a simulated worker.
type wstate int

const (
	wRunning   wstate = iota // a finish event is pending
	wIdle                    // buffer empty, inactive
	wSuspended               // buffer nonempty, DS_i = Forever
	wDelayed                 // buffer nonempty, wake event pending
)

type simWorker[T any] struct {
	id     int
	prog   core.Program[T]
	ctx    *core.Context[T]
	ctrl   core.Controller
	folder *core.Folder[T]

	state   wstate
	wakeGen int64 // invalidates stale wake events

	buffer  []core.VMsg[T]
	origins map[int32]bool

	rounds        int32
	roundTimeEWMA float64
	rateEWMA      float64
	lastArrive    float64
	lastRoundEnd  float64
	runStart      float64
	pendingOut    [][]core.VMsg[T] // messages of the running round, shipped at finish

	stats core.WorkerStats
	speed float64
}

type evKind int

const (
	evFinish evKind = iota
	evArrive
	evWake
)

type event[T any] struct {
	t    float64
	seq  int64
	kind evKind
	w    int
	gen  int64          // for evWake
	from int32          // for evArrive
	msgs []core.VMsg[T] // for evArrive
}

type eventHeap[T any] struct{ evs []*event[T] }

func (h *eventHeap[T]) Len() int { return len(h.evs) }
func (h *eventHeap[T]) Less(i, j int) bool {
	if h.evs[i].t != h.evs[j].t {
		return h.evs[i].t < h.evs[j].t
	}
	return h.evs[i].seq < h.evs[j].seq
}
func (h *eventHeap[T]) Swap(i, j int)      { h.evs[i], h.evs[j] = h.evs[j], h.evs[i] }
func (h *eventHeap[T]) Push(x interface{}) { h.evs = append(h.evs, x.(*event[T])) }
func (h *eventHeap[T]) Pop() interface{} {
	e := h.evs[len(h.evs)-1]
	h.evs = h.evs[:len(h.evs)-1]
	return e
}

type sim[T any] struct {
	p       *partition.Partitioned
	job     core.Job[T]
	cfg     Config
	workers []*simWorker[T]
	ctrls   *core.ControllerSet
	events  eventHeap[T]
	seq     int64
	now     float64
	trace   []Interval
	rounds  []int32
}

func newSim[T any](p *partition.Partitioned, job core.Job[T], cfg Config) *sim[T] {
	opts := core.Options{Mode: cfg.Mode, Staleness: cfg.Staleness, LFloor: cfg.LFloor}
	s := &sim[T]{p: p, job: job, cfg: cfg, ctrls: core.NewControllerSet(opts, p.M), rounds: make([]int32, p.M)}
	s.workers = make([]*simWorker[T], p.M)
	for i, f := range p.Frags {
		speed := 1.0
		if cfg.Speed != nil && i < len(cfg.Speed) && cfg.Speed[i] > 0 {
			speed = cfg.Speed[i]
		}
		ctx := core.NewEngineContext[T](f, p.M)
		ctx.SetSerial()
		s.workers[i] = &simWorker[T]{
			id:      i,
			prog:    job.New(f),
			ctx:     ctx,
			ctrl:    s.ctrls.Controller(i),
			folder:  core.NewFolder[T](f),
			origins: make(map[int32]bool),
			speed:   speed,
		}
	}
	return s
}

func (s *sim[T]) push(e *event[T]) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// startRound executes PEval or IncEval at virtual time t and schedules
// the finish event at t plus the modeled duration.
func (s *sim[T]) startRound(w *simWorker[T], t float64) error {
	if w.rounds >= s.cfg.MaxRounds {
		return fmt.Errorf("sim: %s/%s worker %d exceeded %d rounds", s.job.Name, s.cfg.Mode, w.id, s.cfg.MaxRounds)
	}
	w.state = wRunning
	w.runStart = t
	w.ctx.SetRound(w.rounds)
	if w.rounds == 0 {
		w.prog.PEval(w.ctx)
	} else {
		msgs, err := w.folder.Fold(w.buffer, s.job.Aggregate)
		if err != nil {
			return fmt.Errorf("sim: %s: %w", s.job.Name, err)
		}
		w.buffer = w.buffer[:0]
		for k := range w.origins {
			delete(w.origins, k)
		}
		w.prog.IncEval(msgs, w.ctx)
	}
	out, work := w.ctx.TakeOut()
	w.stats.Work += work
	w.pendingOut = out
	dur := (s.cfg.RoundOverhead + float64(work)*s.cfg.WorkUnitCost) * w.speed
	s.push(&event[T]{t: t + dur, kind: evFinish, w: w.id})
	return nil
}

// finishRound ships the round's messages and re-decides the worker.
func (s *sim[T]) finishRound(w *simWorker[T], t float64) {
	w.state = wIdle // tentative; the caller re-decides immediately
	dur := t - w.runStart
	w.stats.BusySeconds += dur
	w.roundTimeEWMA = core.NextRoundTimeEWMA(w.roundTimeEWMA, dur)
	if s.cfg.Trace {
		s.trace = append(s.trace, Interval{Worker: w.id, Round: w.rounds, Start: w.runStart, End: t})
	}
	w.rounds++
	w.stats.Rounds = w.rounds
	s.rounds[w.id] = w.rounds
	w.lastRoundEnd = t
	for j, msgs := range w.pendingOut {
		if len(msgs) == 0 {
			continue
		}
		var bytes int64
		for _, m := range msgs {
			bytes += int64(s.job.ValueBytes(m.Val))
		}
		w.stats.MsgsSent += int64(len(msgs))
		w.stats.BytesSent += bytes
		s.push(&event[T]{t: t + s.cfg.MsgLatency, kind: evArrive, w: j, from: int32(w.id), msgs: msgs})
	}
	w.ctx.ReleaseOut(w.pendingOut)
	w.pendingOut = nil
	s.ctrls.ObserveRound(s.rmax())
}

func (s *sim[T]) rmax() int32 {
	var rmax int32
	for _, r := range s.rounds {
		if r > rmax {
			rmax = r
		}
	}
	return rmax
}

// view builds the controller View of worker w at virtual time t.
func (s *sim[T]) view(w *simWorker[T], t float64) core.View {
	rmin := int32(math.MaxInt32)
	var rmax int32
	var rateSum, rtSum float64
	for i, o := range s.workers {
		if s.rounds[i] > rmax {
			rmax = s.rounds[i]
		}
		busy := o.state == wRunning || len(o.buffer) > 0
		if busy && s.rounds[i] < rmin {
			rmin = s.rounds[i]
		}
		rateSum += o.rateEWMA
		rtSum += o.roundTimeEWMA
	}
	if rmin == int32(math.MaxInt32) {
		rmin = s.rounds[w.id]
	}
	return core.View{
		Worker:       w.id,
		NumWorkers:   s.p.M,
		Round:        w.rounds,
		RMin:         rmin,
		RMax:         rmax,
		Eta:          len(w.origins),
		Buffered:     len(w.buffer),
		RoundTime:    w.roundTimeEWMA,
		AvgRoundTime: rtSum / float64(s.p.M),
		Rate:         w.rateEWMA,
		AvgRate:      rateSum / float64(s.p.M),
		IdleTime:     t - w.lastRoundEnd,
	}
}

// decide re-evaluates a non-running worker's delay stretch at time t.
func (s *sim[T]) decide(w *simWorker[T], t float64) error {
	if w.state == wRunning {
		return nil
	}
	w.wakeGen++
	if len(w.buffer) == 0 {
		w.state = wIdle
		return nil
	}
	d := w.ctrl.Delay(s.view(w, t))
	switch {
	case math.IsInf(d, 1):
		w.state = wSuspended
	case d <= 0:
		return s.startRound(w, t)
	default:
		w.state = wDelayed
		s.push(&event[T]{t: t + d, kind: evWake, w: w.id, gen: w.wakeGen})
	}
	return nil
}

// reDecideWaiters re-evaluates suspended and delayed workers after global
// progress changes (the concurrent engine's progress broadcast).
func (s *sim[T]) reDecideWaiters(t float64) error {
	for _, w := range s.workers {
		if w.state == wSuspended || w.state == wDelayed {
			if err := s.decide(w, t); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *sim[T]) run() error {
	for _, w := range s.workers {
		if err := s.startRound(w, 0); err != nil {
			return err
		}
	}
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(*event[T])
		s.now = e.t
		w := s.workers[e.w]
		switch e.kind {
		case evFinish:
			s.finishRound(w, e.t)
			if err := s.decide(w, e.t); err != nil {
				return err
			}
			if err := s.reDecideWaiters(e.t); err != nil {
				return err
			}
		case evArrive:
			w.buffer = append(w.buffer, e.msgs...)
			w.origins[e.from] = true
			w.stats.MsgsRecv += int64(len(e.msgs))
			s.ctrls.ObserveConsumed(int64(len(e.msgs)))
			dt := e.t - w.lastArrive
			w.lastArrive = e.t
			if dt > 0 {
				w.rateEWMA = 0.5*w.rateEWMA + 0.5*float64(len(e.msgs))/dt
			}
			if w.state != wRunning {
				if err := s.decide(w, e.t); err != nil {
					return err
				}
			}
		case evWake:
			if e.gen != w.wakeGen || w.state != wDelayed {
				break // superseded by a later decision
			}
			// The stretch elapsed: run with the messages accumulated.
			if len(w.buffer) > 0 {
				if err := s.startRound(w, e.t); err != nil {
					return err
				}
			} else {
				w.state = wIdle
			}
		}
	}
	for _, w := range s.workers {
		if len(w.buffer) > 0 {
			return fmt.Errorf("sim: %s/%s deadlock: worker %d stuck with %d buffered messages", s.job.Name, s.cfg.Mode, w.id, len(w.buffer))
		}
	}
	return nil
}
