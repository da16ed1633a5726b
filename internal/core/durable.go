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
	return run(NewSession(p), job, opts, &resumeState[T]{snap: snap, store: d, bytes: int64(len(payload)), t0: t0})
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
// snapshot store's onSeal hook offers every sealed snapshot to queue, and
// the persister goroutine encodes and writes them off the hot path.
type durableTee[T any] struct {
	job   *Job[T]
	store *checkpoint.DurableStore
	// queue holds seals the persister has not written yet: 8 rides out a
	// slow fsync or an injected write stall without blocking the sealing
	// worker, and a seal offered to a full queue is dropped.
	queue chan *checkpoint.Snapshot[VMsg[T]]
	quit  chan struct{}
	wg    sync.WaitGroup

	dropped  atomic.Int64 // seals the full queue turned away
	warnOnce sync.Once
	degraded atomic.Pointer[string] // first write error; the persister is off from then on
}

// startDurableTee opens (or, resuming, adopts) the record directory,
// hooks the store's seals and starts the persister; nil when the run has
// no Checkpoint.Dir. A fresh run clears the directory first: the records
// there belong to another run, and a Resume that read them after this
// run's seals would restart it from a foreign epoch. The hook runs under
// the store lock on a worker goroutine, so it only offers the seal to the
// queue. A dropped seal leaves the durable tail one epoch behind the
// in-memory store until the next one, which only widens the resume
// fallback, never corrupts it.
func startDurableTee[T any](e *engine[T], rs *resumeState[T]) (*durableTee[T], error) {
	if e.opts.Checkpoint.Dir == "" {
		return nil, nil
	}
	if e.job.EncodeVal == nil || e.job.DecodeVal == nil {
		return nil, fmt.Errorf("core: %s: durable checkpoints require Job.EncodeVal/DecodeVal", e.job.Name)
	}
	d := &durableTee[T]{
		job:   &e.job,
		queue: make(chan *checkpoint.Snapshot[VMsg[T]], 8),
		quit:  make(chan struct{}),
	}
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
	e.ckpt.SetOnSeal(func(s *checkpoint.Snapshot[VMsg[T]]) {
		select {
		case d.queue <- s:
		default:
			// Dropping only widens the resume fallback, but silently is
			// how durability rots — count it and say so once.
			d.dropped.Add(1)
			d.warnOnce.Do(func() {
				fmt.Fprintf(os.Stderr, "core: %s: durable persister lagging, dropped sealed epoch %d (see RunStats.DroppedSeals)\n", d.job.Name, s.Epoch)
			})
		}
	})
	d.wg.Add(1)
	go d.persist()
	return d, nil
}

// stop drains the queue to disk and joins the persister.
func (d *durableTee[T]) stop() {
	if d == nil {
		return
	}
	close(d.quit)
	d.wg.Wait()
}

// report fills the durable section of RunStats; call after stop.
func (d *durableTee[T]) report(s *RunStats) {
	if d == nil {
		return
	}
	s.DurableBytes = d.store.BytesWritten()
	s.FsyncCount = d.store.FsyncCount()
	s.DroppedSeals = d.dropped.Load()
	if msg := d.degraded.Load(); msg != nil {
		s.DurableDegraded = *msg
	}
}

// degrade records the first durable write failure and turns the
// persister off: the run continues non-durable (the in-memory sealed
// snapshot still backs rollback) instead of failing or wedging the seal
// path on a full/broken disk. Surfaced in RunStats.DurableDegraded.
func (d *durableTee[T]) degrade(err error) {
	msg := err.Error()
	if d.degraded.CompareAndSwap(nil, &msg) {
		fmt.Fprintf(os.Stderr, "core: %s: durable checkpoints degraded, run continues non-durable: %v\n", d.job.Name, err)
	}
}

// persist writes queued seals to disk until quit closes, then flushes
// whatever is still queued. Seals arriving after the final flush (a
// straggler control frame past run teardown) stay in the buffered
// channel and are dropped with it.
func (d *durableTee[T]) persist() {
	defer d.wg.Done()
	write := func(s *checkpoint.Snapshot[VMsg[T]]) {
		if d.degraded.Load() != nil {
			return // disk already failed once; don't keep hammering it
		}
		payload := checkpoint.EncodeSnapshot(s, d.job.appendMsg) // flights in the one message layout (wire.go)
		if err := d.store.WriteEpoch(s.Epoch, payload); err != nil {
			d.degrade(fmt.Errorf("core: %s: durable checkpoint epoch %d: %w", d.job.Name, s.Epoch, err))
		}
	}
	for {
		select {
		case s := <-d.queue:
			write(s)
		case <-d.quit:
			for {
				select {
				case s := <-d.queue:
					write(s)
				default:
					return
				}
			}
		}
	}
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
