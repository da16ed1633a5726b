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
	StartRound(worker int, work int64) float64
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

// Simulate runs job over p in virtual time: the same run body, workers,
// controllers, coordinator, scheduler, recovery plane and durable tee as
// Run, each step run inline by one event loop on tl's clock, one kernel
// at a time. A round runs the same kernel code as under Run, where it
// runs on one executor, so a fragment's reported work is the same
// count under both drivers. It is the engine behind internal/sim.
// Checkpoints, their records and worker, delivery and disk faults replay
// exactly; options it cannot model fail, naming the field.
func Simulate[T any](p *partition.Partitioned, job Job[T], opts Options, tl Timeline) (*Result[T], error) {
	unmodeled := []bool{opts.Transport != nil, opts.Faults != nil && len(opts.Faults.Partitions) > 0, opts.Deadline != 0}
	if i := slices.Index(unmodeled, true); i >= 0 {
		return nil, fmt.Errorf("core: Simulate cannot model Options.%s", [...]string{"Transport", "Faults.Partitions", "Deadline"}[i])
	}
	return run(NewSession(p), job, opts, nil, tl)
}
