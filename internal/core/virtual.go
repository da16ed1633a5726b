package core

import (
	"fmt"
	"math"

	"aap/internal/partition"
)

// Timeline is the event queue and cost model of a virtual run: what
// internal/sim puts in the place of goroutines and the wall clock.
type Timeline interface {
	// Now is the virtual time, in seconds, of the event being run.
	Now() float64
	// After queues f to run once Now()+d is reached; events due at the
	// same time run in the order they were queued.
	After(d float64, f func())
	// Next runs the earliest queued event; false when none is left.
	Next() bool
	// StartRound prices the round worker starts now, given the work it
	// reported: the virtual seconds until the round finishes.
	StartRound(worker int, round int32, work int64) float64
	// MsgLatency is the virtual seconds a message batch spends in flight.
	MsgLatency() float64
}

// virtual drives the workers of an engine from one event loop on tl, the
// run's clock, instead of a goroutine each: it is the message plane
// (a delivery is an event MsgLatency later) and the listener for progress
// broadcasts. A worker's blocking wait becomes a flag here, looked at
// again whenever the real loop's select would have woken.
type virtual[T any] struct {
	e  *engine[T]
	tl Timeline
	// Per worker. running: between a round's compute and its finish
	// event; an active worker that is not is held by δ > 0, and decided
	// again when progress changes. gen counts the worker's decisions, so
	// a scheduled wake can tell that a later one superseded it.
	running    []bool
	gen        []int64
	progressed bool // a broadcast since the held workers were last decided
}

func (v *virtual[T]) broadcastProgress() { v.progressed = true }

func (v *virtual[T]) deliver(from, to int, epoch int32, msgs []VMsg[T]) {
	v.tl.After(v.tl.MsgLatency(), func() {
		w := v.e.workers[to]
		v.e.arrive(to, batch[T]{from: int32(from), epoch: epoch, msgs: msgs})
		w.setActive(true) // before the drain, as after the real loop's inactive wait
		v.step(w)
	})
}

// step decides an idle worker again and acts on the answer the way the
// real loop's waits do.
func (v *virtual[T]) step(w *worker[T]) {
	if v.running[w.id] {
		return // the finish event decides, with whatever arrived meanwhile
	}
	v.gen[w.id]++
	d, buffered := w.decide()
	switch {
	case !buffered || math.IsInf(d, 1):
	case d <= 0:
		v.start(w)
	default:
		gen := v.gen[w.id]
		v.tl.After(d, func() {
			if gen == v.gen[w.id] { // else superseded by a later decision
				v.start(w)
			}
		})
	}
}

// start computes worker w's next round now and queues its finish, which
// delivers the round's batches, at the duration the cost model gives it.
func (v *virtual[T]) start(w *worker[T]) {
	out, work, ok := w.compute()
	if !ok {
		return // e.fail ended the run
	}
	v.running[w.id] = true
	dur := v.tl.StartRound(w.id, w.rounds, work)
	v.tl.After(dur, func() {
		v.running[w.id] = false
		w.finish(out, dur)
		v.step(w)
	})
}

func newVirtual[T any](s *Session, job Job[T], opts Options, tl Timeline) *virtual[T] {
	e := newEngine(s, job, opts.withDefaults())
	v := &virtual[T]{e: e, tl: tl, running: make([]bool, s.p.M), gen: make([]int64, s.p.M)}
	e.clock, e.plane, e.coord.eng = tl, v, v
	return v
}

// settle decides the held workers again for as long as progress keeps
// changing — the real loop's wake on a progress broadcast.
func (v *virtual[T]) settle() {
	for v.progressed {
		v.progressed = false
		for _, w := range v.e.workers {
			if w.isActive {
				v.step(w) // a no-op for a running worker
			}
		}
	}
}

// Simulate runs job over p in virtual time: the same workers, controllers
// and coordinator as Run, stepped by one event loop on tl's clock, one
// kernel at a time and unsharded. It is the engine behind internal/sim.
// Of opts it reads Mode, Staleness, LFloor and MaxRounds; physical-worker
// slots, checkpoints, faults and the wire plane are not modeled.
func Simulate[T any](p *partition.Partitioned, job Job[T], opts Options, tl Timeline) (*Result[T], error) {
	s := NewSession(p)
	if err := validate(s, &job); err != nil {
		return nil, err
	}
	v := newVirtual(s, job, opts, tl)
	e := v.e
	for _, w := range e.workers {
		w.ctx.serial = true
		v.start(w)
	}
	// One goroutine: coord.finished needs no lock here.
	for !e.coord.finished && tl.Next() {
		v.settle()
	}
	if err := e.err(); err != nil {
		return nil, err
	}
	for _, w := range e.workers {
		if !e.coord.finished && len(w.buffer) > 0 {
			return nil, fmt.Errorf("core: %s/%s deadlock: worker %d stuck with %d buffered messages", job.Name, opts.Mode, w.id, len(w.buffer))
		}
		// A virtual worker is computing or waiting, nothing else.
		w.stats.IdleSeconds = tl.Now() - w.stats.BusySeconds
	}
	return &Result[T]{Values: e.values(), Stats: e.report(tl.Now())}, nil
}
