package core

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
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
	seconds float64   // open → decode → restore → relaunch, set by seed
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
	d, err := checkpoint.OpenDurable(opts.Checkpoint.Dir, durableOptions(opts))
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", job.Name, err)
	}
	epoch, payload, err := d.NewestSealed()
	if err != nil {
		return nil, fmt.Errorf("core: %s: resume: %w", job.Name, err)
	}
	snap, err := checkpoint.DecodeSnapshot(epoch, payload, p.M, job.readMsg)
	if err != nil {
		return nil, fmt.Errorf("core: %s: resume: sealed epoch %d undecodable: %w", job.Name, epoch, err)
	}
	return run(NewSession(p), job, opts, &resumeState[T]{snap: snap, store: d, bytes: int64(len(payload)), t0: t0}, nil)
}

// durableOptions is the record store a run with Checkpoint.Dir opens:
// its retention, and the filesystem Faults.Disk may replace.
func durableOptions(opts Options) checkpoint.DurableOptions {
	d := checkpoint.DurableOptions{Retain: opts.Checkpoint.Retain}
	if opts.Faults != nil {
		d.FS = opts.Faults.Disk
	}
	return d
}

// durableTee is the seal-to-disk plane (Options.Checkpoint.Dir): the
// snapshot store's onSeal hook keeps the newest sealed snapshot in one
// pending slot and queues at most one write of it on the run's clock —
// a timer under Run, an event under Simulate — so a seal never waits on
// the disk. A seal that supersedes one still pending is counted, not
// written: the directory settles on the newest epoch.
type durableTee[T any] struct {
	job   *Job[T]
	store *checkpoint.DurableStore
	clock clock

	pending atomic.Pointer[checkpoint.Snapshot[VMsg[T]]] // newest seal not yet written
	queued  atomic.Bool                                  // a write is queued on the clock
	dropped atomic.Int64                                 // seals superseded before their write

	// mu serialises the writes; off and degraded are written under it.
	mu       sync.Mutex
	off      bool   // the run is over: nothing more is written
	degraded string // first write error; nothing is written from then on
}

// startDurableTee opens (or, resuming, adopts) the record directory and
// hooks the store's seals; nil when the run has no Checkpoint.Dir. A
// fresh run clears the directory first: the records there belong to
// another run, and a Resume that read them after this run's seals would
// restart it from a foreign epoch. The hook (offer) runs under the store
// lock in a worker's step, so it only fills the slot and queues the
// write. A seal still pending leaves the durable tail behind the
// in-memory store until its write, which only widens the resume
// fallback, never corrupts it.
func startDurableTee[T any](e *engine[T], rs *resumeState[T]) (*durableTee[T], error) {
	if e.opts.Checkpoint.Dir == "" {
		return nil, nil
	}
	if e.job.EncodeVal == nil || e.job.DecodeVal == nil {
		return nil, fmt.Errorf("core: %s: durable checkpoints require Job.EncodeVal/DecodeVal", e.job.Name)
	}
	d := &durableTee[T]{job: &e.job, clock: e.clock}
	if rs != nil {
		d.store = rs.store
	} else {
		store, err := checkpoint.OpenDurable(e.opts.Checkpoint.Dir, durableOptions(e.opts))
		if err == nil {
			err = store.Clear()
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", e.job.Name, err)
		}
		d.store = store
	}
	e.ckpt.SetOnSeal(d.offer)
	return d, nil
}

// offer is the store's seal hook: s becomes the pending seal, and a
// write is queued unless one already is.
func (d *durableTee[T]) offer(s *checkpoint.Snapshot[VMsg[T]]) {
	if d.pending.Swap(s) != nil {
		d.dropped.Add(1)
	}
	if d.queued.CompareAndSwap(false, true) {
		d.clock.After(0, d.flush)
	}
}

// flush is the queued write: it takes the pending seal and writes it,
// unless the run is over. The flag drops before the slot is taken, so a
// seal that lands after the take queues a write of its own.
func (d *durableTee[T]) flush() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.queued.Store(false)
	if !d.off {
		d.write(d.pending.Swap(nil))
	}
}

// stop writes the seal still pending, then switches the tee off: every
// seal the run produced is on disk before it returns, and one that
// comes after the run's end is never written.
func (d *durableTee[T]) stop() {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.write(d.pending.Swap(nil))
	d.off = true
}

// write encodes s and writes it as its epoch's record; the first failure
// degrades the run to non-durable: it continues (the in-memory sealed
// snapshot still backs rollback) instead of failing or wedging the seal
// path on a full or broken disk, and the disk is not tried again.
// Surfaced in RunStats.DurableDegraded. Call with mu held.
func (d *durableTee[T]) write(s *checkpoint.Snapshot[VMsg[T]]) {
	if s == nil || d.degraded != "" {
		return
	}
	payload := checkpoint.EncodeSnapshot(s, d.job.appendMsg) // flights in the one message layout (wire.go)
	if err := d.store.WriteEpoch(s.Epoch, payload); err != nil {
		d.degraded = fmt.Sprintf("core: %s: durable checkpoint epoch %d: %v", d.job.Name, s.Epoch, err)
		fmt.Fprintf(os.Stderr, "core: %s: durable checkpoints degraded, run continues non-durable: %s\n", d.job.Name, d.degraded)
	}
}

// report fills the durable section of RunStats; call after stop.
func (d *durableTee[T]) report(s *RunStats) {
	if d == nil {
		return
	}
	s.DurableBytes = d.store.BytesWritten()
	s.FsyncCount = d.store.FsyncCount()
	s.DroppedSeals = d.dropped.Load()
	s.DurableDegraded = d.degraded
}

// seed rewrites the freshly built engine to the durable snapshot before
// any worker starts (a no-op for a run that does not resume): a resume is
// a rollback whose sealed epoch came from disk. Seeding the in-memory
// store makes rollback and epoch numbering continue from the stored
// epoch; the rollback restores every program through its Snapshotter (a
// call to the host for remote workers — the wire plane is already up) and
// re-injects the captured channel state, counted in the ledger, so
// termination waits for the replayed batches and the next epoch cannot
// seal before they drain.
func (rs *resumeState[T]) seed(e *engine[T]) error {
	if rs == nil {
		return nil
	}
	e.ckpt.Seed(rs.snap)
	e.recov.rollback(-1) // no victim: nobody's state is newer than the snapshot's
	rs.seconds = time.Since(rs.t0).Seconds()
	return e.err()
}

// report fills the resume section of RunStats.
func (rs *resumeState[T]) report(s *RunStats) {
	if rs == nil {
		return
	}
	s.ResumeEpoch = rs.snap.Epoch
	s.ResumeBytes = rs.bytes
	s.ResumeSeconds = rs.seconds
}
