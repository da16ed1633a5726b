package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"aap/internal/checkpoint"
)

// CheckpointOptions configures consistent snapshots of a run.
type CheckpointOptions struct {
	// EveryRounds announces a new snapshot epoch whenever a worker
	// completes a multiple of this many rounds (and the previous epoch
	// has sealed). Zero disables checkpointing, unless Dir is set: then
	// it means every round.
	EveryRounds int32
	// Dir, when set, tees every sealed snapshot to crash-consistent
	// record files in this directory (created if missing), so Resume
	// can restart the whole process from the newest sealed epoch. A
	// fresh Run owns the directory: it first removes the records an
	// earlier run left there, so a later Resume restarts from this run's
	// epochs and no other's. Requires Job.EncodeVal/DecodeVal.
	Dir string
	// Retain keeps the newest K epochs on disk (default 3, floor 2).
	Retain int
}

// The engine adapts Chandy-Lamport to its asynchronous rounds with the
// epoch stamp as the marker:
//
//   - Every outgoing batch is stamped with the sender's recorded epoch
//     at the end of its round, so "carries the token" is simply stamp == e.
//   - A worker records its cut for epoch e the first time it learns of
//     e: at a round boundary (polling the announced epoch) or upon
//     draining a batch stamped e — before that batch is folded into its
//     buffer. The cut is the program's durable state plus the pending
//     fold, which by the record-before-drain rule holds only pre-cut
//     messages; it is captured as channel state.
//   - Batches stamped before the receiver's recorded epoch are late
//     messages without the token: copied into the snapshot's channel
//     state at drain, then processed normally.
//   - Epoch e seals when every worker has recorded it and every batch
//     stamped < e has drained (checkpoint.Ledger's stamp-(e−1) side).
//
// Recovery is a global rollback, not a victim-only restore: replaying a
// victim's lost messages necessarily re-sends data that surviving
// workers may have already folded, which is only sound when the
// aggregate is idempotent. Rolling every worker back to the sealed cut
// makes the resumed run a legal execution from a consistent state for
// any aggregate, which is what the determinism contract (recovered
// output ≡ fault-free output) rests on.

// recovery is the fault-tolerance plane of a run: it coordinates quiesce
// → rollback → resume after a worker death, and climbs the self-healing
// ladder (superviseDead, rollback) for dead remote hosts. While pause is
// set a worker's step does nothing, so once no task runs it can rewrite
// their state.
type recovery[T any] struct {
	e     *engine[T]
	pause atomic.Pointer[pauseReq] // the recovery in progress; nil when none

	recoveries      atomic.Int64
	recoverySeconds float64 // written by the recovery event, which holds turns
	// The ladder's rungs.
	restarts      atomic.Int64
	rejoinNanos   atomic.Int64
	failbacks     atomic.Int64
	freshRestarts atomic.Int64
}

// pauseReq is one recovery's request: its victim, the clock reading it
// was made at, and whether a settle has claimed it.
type pauseReq struct {
	victim  int
	at      float64
	claimed atomic.Bool
}

// newRecovery switches the plane on for a run that checkpoints (every
// run with a Checkpoint.Dir does, Resume's included), injects faults or
// hosts Programs remotely, building the snapshot store and the fault
// injector it works with; nil otherwise.
func newRecovery[T any](e *engine[T]) (*recovery[T], error) {
	if e.opts.Checkpoint.EveryRounds > 0 {
		for _, w := range e.workers {
			if _, ok := w.prog.(Snapshotter); !ok {
				return nil, fmt.Errorf("core: %s: checkpointing requires the Program to implement core.Snapshotter", e.job.Name)
			}
		}
		e.ckpt = checkpoint.NewStore[VMsg[T]](e.p.M, &e.ledger)
	}
	if e.opts.Faults != nil {
		e.inj = newFaultInjector(*e.opts.Faults, e.p.M)
	}
	if e.ckpt == nil && e.inj == nil && (e.opts.Transport == nil || len(e.opts.Transport.RemoteWorkers) == 0) {
		return nil, nil
	}
	return &recovery[T]{e: e}, nil
}

// report fills the fault-tolerance and supervision sections of RunStats.
func (r *recovery[T]) report(s *RunStats) {
	if r == nil {
		return
	}
	if ckpt := r.e.ckpt; ckpt != nil {
		s.Checkpoints = ckpt.SealedCount()
		s.CheckpointBytes = ckpt.SealedBytes()
	}
	s.Recoveries = r.recoveries.Load()
	s.RecoverySeconds = r.recoverySeconds
	s.Restarts = r.restarts.Load()
	s.RejoinSeconds = float64(r.rejoinNanos.Load()) / 1e9
	s.Failbacks = r.failbacks.Load()
	s.FreshRestarts = r.freshRestarts.Load()
}

// request asks for a recovery from the death of worker victim and
// settles; redundant requests while one is in progress are ignored.
func (r *recovery[T]) request(victim int) {
	if r.pause.CompareAndSwap(nil, &pauseReq{victim: victim, at: r.e.clock.Now()}) {
		r.settle()
	}
}

// settle claims the requested recovery once the engine is quiescent —
// pause set, no task in a step or (under Simulate) a round, nothing in
// flight on the ledger — and runs it as one event on the run's clock.
// A request, a step's end and a landing settle. Tasks are read before the
// ledger: a step counts its sends before it leaves taskRunning. The claim
// is the request's, so a stale settle cannot claim it twice; the event
// holds turns like a step, so the run's end waits it out or voids it.
func (r *recovery[T]) settle() {
	if r == nil {
		return
	}
	e, p := r.e, r.pause.Load()
	if p == nil || p.claimed.Load() {
		return
	}
	for _, w := range e.workers {
		if t := w.task.Load(); t == taskRunning || t == taskRewoken {
			return
		}
	}
	if e.ledger.InFlight() || !p.claimed.CompareAndSwap(false, true) {
		return
	}
	e.clock.After(0, func() {
		if !e.sched.turns.TryRLock() {
			return
		}
		defer e.sched.turns.RUnlock()
		select {
		case <-e.coord.done:
			return
		default:
		}
		r.superviseDead()
		r.rollback(p.victim)
		r.recoveries.Add(1)
		r.recoverySeconds += e.clock.Now() - p.at
		r.finish()
	})
}

// superviseDead is the self-healing ladder's first rung, running with
// the engine quiesced, before the rollback: for every remote host the
// detector declared dead, ask the restart policy for a replacement
// process, wait for its higher-incarnation handshake, and rearm the
// proxy — so the rollback below restores its Program over RPC exactly
// like any live remote worker. A refusal (budget exhausted) or a
// respawn that never dials in leaves the proxy dead and the rollback
// fails that worker back to a locally rebuilt Program. Scanning all
// proxies (not just the requesting victim) covers a second host dying
// while this recovery was already active — request() ignores the
// redundant trigger, but the corpse is here to be found.
func (r *recovery[T]) superviseDead() {
	e := r.e
	topts := e.opts.Transport
	if topts == nil || topts.Supervisor == nil || e.wire == nil {
		return
	}
	for k, rp := range e.wire.remotes {
		if rp == nil || rp.alive() {
			continue
		}
		for {
			inc, ok := topts.Supervisor.Respawn(k)
			if !ok {
				break // budget spent: rollback fails this worker back
			}
			t0 := time.Now()
			if e.wire.tp.WaitRoute(rp.host, inc, rejoinWait, e.coord.done) == nil {
				rp.rejoin()
				r.restarts.Add(1)
				r.rejoinNanos.Add(time.Since(t0).Nanoseconds())
				break
			}
			// The respawn never completed its handshake (launch failure,
			// or it died again instantly): spend the next unit of budget.
		}
	}
}

// finish re-arms the manager and wakes every worker.
func (r *recovery[T]) finish() {
	r.pause.Store(nil)
	r.e.sched.wakeAll()
}

// rollback rewrites the whole engine to the last sealed snapshot while
// no task runs. The in-memory store is its one source (only
// Resume reads the checkpoint directory, and seeds the store from it);
// with no sealed snapshot the run restarts from scratch: fresh programs,
// PEval again. The victim's program is discarded and rebuilt purely from
// snapshot bytes — its in-memory state is treated as lost with the
// "dead" worker.
func (r *recovery[T]) rollback(victim int) {
	e := r.e
	var snap *checkpoint.Snapshot[VMsg[T]]
	if e.ckpt != nil {
		snap = e.ckpt.Sealed()
	}

	// Destroy the abandoned execution's residue: inbox contents and
	// pending folds are all post-cut.
	for _, w := range e.workers {
		bs := w.inbox.take()
		for _, b := range bs {
			e.pool.put(b.msgs)
		}
		if bs != nil {
			w.inbox.release(bs)
		}
		w.folder.Reset()
	}

	rounds := make([]int32, e.p.M)
	freshRestart := false
	for i, w := range e.workers {
		// A dead remote host can't execute anything again: fail back to a
		// locally hosted Program rebuilt from the fragment (its in-memory
		// state is lost with the process either way). A host that
		// superviseDead respawned and rejoined reads as a live remote
		// here, so its proxy survives and the restore below rides the
		// RPC to the new incarnation.
		rp, remote := w.prog.(*remoteProg[T])
		liveRemote := remote && rp.alive()
		deadRemote := remote && !liveRemote
		if deadRemote {
			r.failbacks.Add(1)
		}
		if snap == nil {
			freshRestart = true
			if liveRemote {
				// Full restart with a live remote host: have it rebuild
				// its Program in place instead of replacing the proxy.
				if rp.reset() != nil {
					e.fail(fmt.Errorf("core: %s worker %d remote reset failed", e.job.Name, i))
					return
				}
			} else {
				w.prog = e.job.New(w.frag)
			}
			w.rounds = 0
			w.pevalDone = false
			w.epoch = 0
		} else {
			if (i == victim && !liveRemote) || deadRemote {
				w.prog = e.job.New(w.frag)
			}
			if err := w.prog.(Snapshotter).RestoreState(snap.States[i]); err != nil {
				e.fail(fmt.Errorf("core: %s worker %d failed to restore epoch %d: %w", e.job.Name, i, snap.Epoch, err))
				return
			}
			w.rounds = snap.Rounds[i]
			w.pevalDone = snap.PEvalDone[i]
			w.epoch = snap.Epoch
		}
		rounds[i] = w.rounds
		w.isActive = true
		w.gen.Add(1) // a hold decided before the cut is void
	}
	if freshRestart {
		r.freshRestarts.Add(1)
	}
	e.coord.reset(rounds)
	if e.ckpt != nil {
		e.ckpt.Reset()
	}

	// Replay the captured channel state through the normal inbox path,
	// waking nobody: Resume's seed replays before the run wakes its
	// workers, and every caller wakes all workers afterwards. The copies keep the sealed
	// snapshot intact for a second recovery, and the ledger (zeroed by
	// coord.reset) counts the replayed batches like live ones: termination
	// waits for them, and the next epoch cannot seal before they drain.
	if snap != nil {
		for _, f := range snap.InFlight {
			msgs := append([]VMsg[T](nil), f.Msgs...)
			e.ledger.Sent(int64(len(msgs)), snap.Epoch)
			e.land(int(f.To), batch[T]{from: f.From, epoch: snap.Epoch, msgs: msgs})
		}
	}
}

// safepoint handles fault-tolerance business at the top of a step:
// recording an announced epoch and firing scheduled stall/kill faults. It
// returns false when the step ends there: a stall holds the worker on the
// clock, whose expiry wakes it, and a kill starts a recovery, whose end
// does.
func (w *worker[T]) safepoint() bool {
	e := w.eng
	if e.ckpt != nil {
		if ep := e.ckpt.AnnouncedEpoch(); ep > w.epoch {
			w.record(ep)
		}
	}
	if e.inj != nil {
		if d, ok := e.inj.shouldStall(w.id, w.rounds); ok {
			w.stalled.Store(true)
			e.clock.After(d.Seconds(), func() {
				w.stalled.Store(false)
				e.sched.wake(w)
			})
			return false
		}
		if e.inj.shouldKill(w.id, w.rounds) {
			e.recov.request(w.id)
			return false
		}
	}
	return true
}

// interrupted reports whether an inactive worker has an epoch to record.
func (w *worker[T]) interrupted() bool {
	e := w.eng
	return e.ckpt != nil && e.ckpt.AnnouncedEpoch() > w.epoch
}

// record takes this worker's cut for epoch: durable program state,
// round counter, and the pending fold as captured channel state (the
// record-before-drain rule guarantees it holds only pre-cut messages).
// The fold is copied as one flight from the worker to itself, in
// first-arrival order; replay folds it before any batch drained after
// the cut, so each vertex's values fold in the order they did here.
func (w *worker[T]) record(epoch int32) {
	snap, ok := w.prog.(Snapshotter)
	if !ok {
		return // Run validated this when checkpointing is enabled
	}
	if rp, ok := w.prog.(*remoteProg[T]); ok && !rp.alive() {
		// The host died: its snapshot RPC would return nil state, and
		// sealing an epoch over it would corrupt the recovery point.
		// Recovery is already requested; it rolls back past this epoch.
		return
	}
	state := snap.SnapshotState()
	if rp, ok := w.prog.(*remoteProg[T]); ok && !rp.alive() {
		return // host died mid-snapshot; state may be truncated
	}
	var fl []checkpoint.Flight[VMsg[T]]
	if pending := w.folder.Pending(); len(pending) > 0 {
		id := int32(w.id)
		fl = []checkpoint.Flight[VMsg[T]]{{From: id, To: id, Msgs: slices.Clone(pending)}}
	}
	if err := w.eng.ckpt.Record(int32(w.id), epoch, state, w.rounds, w.pevalDone, fl); err == nil {
		w.epoch = epoch
	}
}
