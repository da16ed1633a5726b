package core

import (
	"fmt"
	"os"
	"time"

	"aap/internal/checkpoint"
	"aap/internal/partition"
)

// resumeState carries a decoded durable snapshot from Resume into run.
type resumeState[T any] struct {
	snap    *checkpoint.Snapshot[VMsg[T]]
	store   *checkpoint.DurableStore
	bytes   int64     // record payload bytes read
	t0      time.Time // when Resume opened the directory
	seconds float64   // open → decode → restore → relaunch, set by run
}

// Resume restarts job from the newest sealed epoch in
// opts.Checkpoint.Dir: it rebuilds every worker's program from the
// durably stored snapshot (over RPC for Options.Transport remote
// workers), replays the captured in-flight batches through the normal
// inbox path, and continues the run — bit-identical to the fault-free
// execution for idempotent aggregates, by the same argument that backs
// in-process rollback recovery. A record with a torn tail or CRC
// mismatch is skipped in favor of the previous sealed epoch; when no
// record decodes at all the returned error wraps
// checkpoint.ErrNoSealedEpoch.
func Resume[T any](p *partition.Partitioned, job Job[T], opts Options) (*Result[T], error) {
	if opts.Checkpoint.Dir == "" {
		return nil, fmt.Errorf("core: %s: Resume requires Options.Checkpoint.Dir", job.Name)
	}
	if job.EncodeVal == nil || job.DecodeVal == nil {
		return nil, fmt.Errorf("core: %s: durable checkpoints require Job.EncodeVal/DecodeVal", job.Name)
	}
	t0 := time.Now()
	d, err := checkpoint.OpenDurable(opts.Checkpoint.Dir, durableOptions(opts.Checkpoint))
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", job.Name, err)
	}
	epoch, payload, err := d.NewestSealed()
	if err != nil {
		return nil, fmt.Errorf("core: %s: resume: %w", job.Name, err)
	}
	snap, err := checkpoint.DecodeSnapshot(epoch, payload, job.readMsg)
	if err != nil {
		return nil, fmt.Errorf("core: %s: resume: sealed epoch %d undecodable: %w", job.Name, epoch, err)
	}
	if len(snap.States) != p.M {
		return nil, fmt.Errorf("core: %s: resume: snapshot has %d workers, partition has %d", job.Name, len(snap.States), p.M)
	}
	for _, f := range snap.InFlight {
		if f.From < 0 || int(f.From) >= p.M || f.To < 0 || int(f.To) >= p.M {
			return nil, fmt.Errorf("core: %s: resume: in-flight batch %d->%d outside %d workers", job.Name, f.From, f.To, p.M)
		}
	}
	return run(NewSession(p), job, opts, &resumeState[T]{snap: snap, store: d, bytes: int64(len(payload)), t0: t0})
}

func durableOptions(c CheckpointOptions) checkpoint.DurableOptions {
	return checkpoint.DurableOptions{SyncEvery: c.SyncEvery, Retain: c.Retain, FS: c.FS}
}

// setupDurable wires the seal-to-disk tee: the store's onSeal hook
// hands sealed snapshots to a buffered channel (non-blocking — the hook
// runs under the store lock on a worker goroutine) and the persister
// goroutine encodes and writes them. A full channel drops the offered
// seal; the durable tail then lags the in-memory store by one epoch
// until the next seal, which only widens the resume fallback, never
// corrupts it.
func (e *engine[T]) setupDurable(rs *resumeState[T]) error {
	if e.ckpt == nil {
		return fmt.Errorf("core: %s: Checkpoint.Dir requires Checkpoint.EveryRounds > 0", e.job.Name)
	}
	if e.job.EncodeVal == nil || e.job.DecodeVal == nil {
		return fmt.Errorf("core: %s: durable checkpoints require Job.EncodeVal/DecodeVal", e.job.Name)
	}
	if rs != nil {
		e.durable = rs.store
	} else {
		d, err := checkpoint.OpenDurable(e.opts.Checkpoint.Dir, durableOptions(e.opts.Checkpoint))
		if err != nil {
			return fmt.Errorf("core: %s: %w", e.job.Name, err)
		}
		e.durable = d
	}
	e.persistCh = make(chan *checkpoint.Snapshot[VMsg[T]], 8)
	e.persistQuit = make(chan struct{})
	e.ckpt.SetOnSeal(func(s *checkpoint.Snapshot[VMsg[T]]) {
		select {
		case e.persistCh <- s:
		default:
			// The persister is further than 8 seals behind (slow disk or
			// injected write stall): dropping the seal only widens the
			// resume fallback, but silently is how durability rots —
			// count it and say so once.
			e.droppedSeals.Add(1)
			e.dropWarnOnce.Do(func() {
				fmt.Fprintf(os.Stderr, "core: %s: durable persister lagging, dropped sealed epoch %d (see RunStats.DroppedSeals)\n", e.job.Name, s.Epoch)
			})
		}
	})
	return nil
}

// degradeDurable records the first durable write failure and turns the
// persister off: the run continues non-durable (the in-memory sealed
// snapshot still backs rollback) instead of failing or wedging the seal
// path on a full/broken disk. Surfaced in RunStats.DurableDegraded.
func (e *engine[T]) degradeDurable(err error) {
	e.degradeMu.Lock()
	first := e.degraded == ""
	if first {
		e.degraded = err.Error()
	}
	e.degradeMu.Unlock()
	if first {
		fmt.Fprintf(os.Stderr, "core: %s: durable checkpoints degraded, run continues non-durable: %v\n", e.job.Name, err)
	}
}

func (e *engine[T]) durableDegraded() bool {
	e.degradeMu.Lock()
	defer e.degradeMu.Unlock()
	return e.degraded != ""
}

// persistLoop drains sealed snapshots to disk until persistQuit closes,
// then flushes whatever is still queued. Seals arriving after the final
// flush (a straggler control frame past run teardown) stay in the
// buffered channel and are dropped with it.
func (e *engine[T]) persistLoop() {
	defer e.persistWg.Done()
	write := func(s *checkpoint.Snapshot[VMsg[T]]) {
		if e.durableDegraded() {
			return // disk already failed once; don't keep hammering it
		}
		payload := checkpoint.EncodeSnapshot(s, e.job.appendMsg) // flights in the one message layout (wire.go)
		if err := e.durable.WriteEpoch(s.Epoch, payload); err != nil {
			e.degradeDurable(fmt.Errorf("core: %s: durable checkpoint epoch %d: %w", e.job.Name, s.Epoch, err))
		}
	}
	for {
		select {
		case s := <-e.persistCh:
			write(s)
		case <-e.persistQuit:
			for {
				select {
				case s := <-e.persistCh:
					write(s)
				default:
					return
				}
			}
		}
	}
}

// seedResume rewrites the freshly built engine to the durable snapshot
// before any worker starts: the in-memory store is seeded so rollback
// and epoch numbering continue from the stored epoch, every program is
// restored through its Snapshotter (an RPC for remote workers — the
// plane is already up), and the captured channel state is re-injected
// with the same sent/outstanding accounting a rollback uses, so
// termination waits for the replayed batches and the next epoch cannot
// seal before they drain.
func (e *engine[T]) seedResume(snap *checkpoint.Snapshot[VMsg[T]]) error {
	e.ckpt.Seed(snap)
	rounds := make([]int32, e.p.M)
	for i, w := range e.workers {
		if err := w.prog.(Snapshotter).RestoreState(snap.States[i]); err != nil {
			return fmt.Errorf("core: %s: worker %d failed to restore sealed epoch %d: %w", e.job.Name, i, snap.Epoch, err)
		}
		w.rounds = snap.Rounds[i]
		w.pevalDone = snap.PEvalDone[i]
		w.epoch = snap.Epoch
		rounds[i] = w.rounds
	}
	e.coord.reset(rounds)
	for _, f := range snap.InFlight {
		msgs := append([]VMsg[T](nil), f.Msgs...)
		e.coord.addSent(int64(len(msgs)))
		e.ckpt.BatchSent(snap.Epoch)
		e.workers[f.To].inbox.put(batch[T]{from: f.From, epoch: snap.Epoch, msgs: msgs})
	}
	return nil
}
