package core

import (
	"fmt"
	"math"
	"sync"
)

// A worker is a task of the run's one scheduler: idle (until a wake),
// queued (woken, ready for an executor) or running (in a step;
// under Simulate also for the virtual length of its round). A wake that
// finds the task running is kept (rewoken) and handled when it ends.
const (
	taskIdle int32 = iota
	taskQueued
	taskRunning
	taskRewoken
)

// sched is the one scheduler of a run: Section 3's worker loop cut at
// its waits into steps, and the four events that wake a worker for its
// next step — a message arriving (engine.arrive), progress news (sweep),
// a δ hold or stall expiring, and the end of a recovery. The two drivers
// differ only in who runs a step: under Run a woken worker is a task on
// its Session's executors (cores), which run the ready tasks of all the
// Session's queries, the queries taking turns, on the wall clock;
// Simulate runs each step inline on its event loop and prices each
// round on the Timeline.
type sched[T any] struct {
	e     *engine[T]
	tl    Timeline // Simulate's; nil under Run
	cores *cores
	// Every turn and recovery event holds turns for reading; the run's
	// end takes it for writing once done is closed, which waits out the
	// last of them, and a later one cannot take it, so it does nothing.
	turns sync.RWMutex
}

// turn is one step of worker w on a Session's executor, and reports
// whether w is due again, which puts it back behind the Session's ready
// tasks. A turn of a finished run does nothing.
func (w *worker[T]) turn() bool {
	s := &w.eng.sched
	if !s.turns.TryRLock() {
		return false
	}
	defer s.turns.RUnlock()
	select {
	case <-s.e.coord.done:
		return false
	default:
	}
	again := s.run(w)
	s.sweep()
	if again {
		w.task.Store(taskQueued)
	}
	return again
}

func (w *worker[T]) owner() any { return w.eng }

// wake asks for worker w's next step: an idle task is handed to the
// Session's executors (run at once under Simulate), a running one steps
// again when it ends.
func (s *sched[T]) wake(w *worker[T]) {
	for {
		switch w.task.Load() {
		case taskIdle:
			if !w.task.CompareAndSwap(taskIdle, taskQueued) {
				continue
			}
			if s.tl != nil {
				s.runInline(w)
			} else {
				s.cores.submit(w)
			}
			return
		case taskRunning:
			if w.task.CompareAndSwap(taskRunning, taskRewoken) {
				return
			}
		default:
			return
		}
	}
}

// runInline runs task w where it is woken, Simulate's driver.
func (s *sched[T]) runInline(w *worker[T]) {
	for s.run(w) {
	}
}

// run is one step of task w, after which the task is idle, due again at
// once (after a round, or when woken meanwhile: run reports true and the
// caller runs it again or hands it back to the executors) or, under
// Simulate, running until its round's finish event runs it again.
func (s *sched[T]) run(w *worker[T]) (again bool) {
	defer s.e.recov.settle() // the step's end may be the quiescence a recovery waits for
	w.task.Store(taskRunning)
	round := s.step(w)
	if round && s.tl != nil {
		return false
	}
	return round || !w.task.CompareAndSwap(taskRunning, taskIdle)
}

// sweep hands progress news to the workers it concerns: every active
// one, since relative progress may free a held worker, and, while a
// snapshot epoch is open, the inactive ones too, which must record it.
// An inactive worker otherwise ignores progress: its buffer is empty, so
// news cannot create work for it, and flipping it active would broadcast
// again from setActive, echo waves that keep the run from terminating.
// Under Run a turn sweeps after every step, Simulate's loop after every
// event; every broadcast comes from a step.
func (s *sched[T]) sweep() {
	e := s.e
	for e.coord.progressed.Swap(false) {
		epochOpen := e.ckpt != nil && e.ckpt.AnnouncedEpoch() > e.ckpt.SealedEpoch()
		for _, w := range e.workers {
			if epochOpen || e.coord.active[w.id].Load() {
				s.wake(w)
			}
		}
	}
}

// wakeAll wakes every worker, in worker order: when a run begins and
// when a recovery ends.
func (s *sched[T]) wakeAll() {
	for _, w := range s.e.workers {
		s.wake(w)
	}
}

// step is one step of worker w: safepoint, then a round when one is due
// (PEval, or a δ hold that expired), else decide and act on the answer —
// run the round now, hold it on the clock for δ, or wait for the next
// wake. It reports whether a round ran (under Simulate: started). A
// panic in the Program fails the run with an error naming the worker.
func (s *sched[T]) step(w *worker[T]) (round bool) {
	e := s.e
	defer func() {
		if p := recover(); p != nil {
			e.fail(fmt.Errorf("core: %s/%s worker %d panicked at round %d: %v", e.job.Name, e.opts.Mode, w.id, w.rounds, p))
			round = false
		}
	}()
	if e.recov != nil && e.recov.pause.Load() != nil {
		return false // quiesced: the recovery's end wakes every worker
	}
	if w.stalled.Load() {
		return false // the stall's end wakes it
	}
	if !w.isActive {
		// Only a message, or an epoch to record, reactivates an
		// inactive worker (see sweep).
		if !w.inbox.pending() && !w.interrupted() {
			return false
		}
		w.setActive(true)
	}
	if !w.safepoint() {
		return false
	}
	if due := w.due.Swap(0); !w.pevalDone || due != 0 && due == w.gen.Load() {
		s.round(w)
		return true
	}
	gen := w.gen.Add(1) // supersedes any hold still pending
	d, buffered := w.decide()
	switch {
	case !buffered || math.IsInf(d, 1):
		return false
	case d <= 0:
		s.round(w)
		return true
	}
	e.clock.After(d, func() {
		if w.gen.Load() == gen {
			w.due.Store(gen)
			s.wake(w)
		}
	})
	return false
}

// round computes worker w's next round and finishes it: on the wall
// clock right away, timed around compute; under Simulate at the duration
// the cost model gives the work it reported, as an event. Its start and
// duration are known here, so the Round event is emitted here.
func (s *sched[T]) round(w *worker[T]) {
	t0 := s.e.clock.Now()
	out, work, ok := w.compute()
	if !ok {
		return // e.fail ended the run
	}
	var msgs int64
	for _, b := range out {
		msgs += int64(len(b))
	}
	dur := s.e.clock.Now() - t0
	if s.tl != nil {
		dur = s.tl.StartRound(w.id, work)
	}
	if obs := s.e.opts.Observe; obs != nil {
		obs(Event{Kind: Round, Worker: w.id, Round: w.rounds, Time: t0, Seconds: dur, Work: work, Msgs: msgs})
	}
	if s.tl == nil {
		w.finish(out, msgs, dur)
		return
	}
	s.tl.After(dur, func() {
		w.finish(out, msgs, dur)
		s.runInline(w)
	})
}
