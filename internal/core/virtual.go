package core

import (
	"fmt"
	"slices"

	"aap/internal/partition"
)

// Timeline is the event queue and cost model of a virtual run: what
// internal/sim puts in the place of the executor pool and the wall clock.
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

// timelinePlane is the message plane of a virtual run: a batch arrives
// MsgLatency after its round's finish, as an event.
type timelinePlane[T any] struct {
	e  *engine[T]
	tl Timeline
}

func (p *timelinePlane[T]) deliver(from, to int, epoch int32, msgs []VMsg[T]) {
	p.tl.After(p.tl.MsgLatency(), func() {
		p.e.arrive(to, batch[T]{from: int32(from), epoch: epoch, msgs: msgs})
	})
}

// newVirtual builds the engine of a virtual run: its clock, message plane
// and scheduler all run on tl, and every kernel pass is unsharded.
func newVirtual[T any](s *Session, job Job[T], opts Options, tl Timeline) *engine[T] {
	e := newEngine(s, job, opts.withDefaults())
	e.clock, e.plane, e.sched.tl = tl, &timelinePlane[T]{e, tl}, tl
	for _, w := range e.workers {
		w.ctx.serial = true
	}
	return e
}

// Simulate runs job over p in virtual time: the same workers, controllers,
// coordinator, scheduler and recovery plane as Run, each step run inline
// by one event loop on tl's clock, one kernel at a time and unsharded. It
// is the engine behind internal/sim. Checkpoints and worker and delivery
// faults replay exactly; options it cannot model fail, naming the field.
func Simulate[T any](p *partition.Partitioned, job Job[T], opts Options, tl Timeline) (*Result[T], error) {
	f := opts.Faults
	unmodeled := []bool{opts.Checkpoint.Dir != "", opts.Transport != nil, f != nil && len(f.Partitions) > 0, f != nil && f.Disk != nil, opts.Deadline != 0}
	if i := slices.Index(unmodeled, true); i >= 0 {
		return nil, fmt.Errorf("core: Simulate cannot model Options.%s", [...]string{"Checkpoint.Dir", "Transport", "Faults.Partitions", "Faults.Disk", "Deadline"}[i])
	}
	s := NewSession(p)
	if err := validate(s, &job); err != nil {
		return nil, err
	}
	e := newVirtual(s, job, opts, tl)
	var err error
	if e.recov, err = newRecovery(e); err != nil {
		return nil, err
	}
	e.sched.wakeAll() // every PEval starts, inline, in worker order
	// One goroutine: coord.finished needs no lock here.
	for !e.coord.finished && tl.Next() {
		e.sched.sweep()
	}
	if err := e.err(); err != nil {
		return nil, err
	}
	for _, w := range e.workers {
		if !e.coord.finished && len(w.buffer) > 0 {
			return nil, fmt.Errorf("core: %s/%s deadlock: worker %d stuck with %d buffered messages", job.Name, opts.Mode, w.id, len(w.buffer))
		}
	}
	stats := e.report(tl.Now())
	e.recov.report(&stats)
	return &Result[T]{Values: e.values(), Stats: stats}, nil
}
