package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"aap/internal/checkpoint"
	"aap/internal/partition"
)

// Options configures a run of the concurrent engine.
type Options struct {
	// Mode selects the parallel model; AAP is the default.
	Mode Mode
	// Staleness is the bound c for SSP, and for AAP's predicate S when
	// the algorithm needs bounded staleness (CF). Zero means unbounded.
	Staleness int
	// MaxRounds aborts the run when any worker exceeds it; a safety
	// valve for non-terminating programs. Defaults to 1 << 20.
	MaxRounds int32
	// Checkpoint enables Chandy-Lamport snapshots; requires every
	// Program of the job to implement Snapshotter.
	Checkpoint CheckpointOptions
	// Faults, when non-nil, is the run's one fault plan: worker
	// kill/stall, message delay/duplicate/drop, link partitions and the
	// durable store's filesystem.
	Faults *Faults
	// Deadline force-finishes the run after this wall time. A run that
	// ends at or past it, by the run's clock, returns the partial Result
	// plus an error wrapping context.DeadlineExceeded. Defaults to 5
	// minutes.
	Deadline time.Duration
	// Transport selects the message plane (in-proc channels, TCP, remote
	// Program hosts); nil is the in-proc fast path.
	Transport *TransportOptions
	// Observe, when set, is handed every RoundStart, Round and Decide
	// event of the run (see Event), each from the step of the worker it
	// names: calls for one worker never overlap, calls for different
	// workers may, and it must not block. Nil costs one branch.
	Observe func(Event)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxRounds <= 0 {
		out.MaxRounds = 1 << 20
	}
	if out.Deadline <= 0 {
		out.Deadline = 5 * time.Minute
	}
	if out.Checkpoint.Dir != "" && out.Checkpoint.EveryRounds <= 0 {
		out.Checkpoint.EveryRounds = 1
	}
	return out
}

// Run executes job over the partitioned graph p under the configured
// parallel model and returns the assembled result. It is the engine of
// Section 3: PEval at every worker, asynchronous IncEval rounds gated by
// each worker's delay-stretch controller, and termination detected when
// every worker is inactive with no designated messages in flight.
//
// Run is the one-shot wrapper over the resident serving plane: it wraps
// p in a throwaway Session and issues a single Query. Long-lived
// callers that run many queries over one loaded graph should hold a
// Session (see NewSession) and call Query directly.
func Run[T any](p *partition.Partitioned, job Job[T], opts Options) (*Result[T], error) {
	return Query(NewSession(p), job, opts)
}

// run is the one body of Run, Resume and Simulate: rs, when non-nil,
// seeds the engine from a durably stored sealed snapshot before the
// first round; tl, when non-nil, is Simulate's timeline, whose event
// loop drives the run in place of the Session's executors and the wall
// clock.
//
// It composes the run from values that each own their state, their stop
// and their section of RunStats: the workers (newEngine), the
// fault-tolerance plane (recovery: snapshot store, injected faults,
// rollback, the supervision ladder), the durable tee, the wire plane and
// the resume seed. They start in that order — the tee hooks the store's
// seals, remote Programs must be reachable before a resume restores them
// — and stop in the order below: whoever can still write state first, the
// wire plane last, after Assemble has collected remote values over it.
func run[T any](s *Session, job Job[T], opts Options, rs *resumeState[T], tl Timeline) (*Result[T], error) {
	if err := validate(s, &job); err != nil {
		return nil, err
	}
	e := newEngine(s, job, opts, tl)
	var err error
	if e.recov, err = newRecovery(e); err != nil {
		return nil, err
	}
	if e.tee, err = startDurableTee(e, rs); err != nil {
		return nil, err
	}
	if e.wire, err = startWirePlane(e); err == nil {
		defer e.wire.stop()
		err = rs.seed(e)
	}
	if err != nil {
		e.tee.stop()
		return nil, err
	}

	e.sched.wakeAll() // under Simulate every PEval starts, inline, in worker order

	deadlined := false // only the wall clock has a deadline
	if tl != nil {
		// One goroutine: coord.finished needs no lock here.
		for !e.coord.finished && tl.Next() {
			e.sched.sweep()
		}
		for _, w := range e.workers {
			if !e.coord.finished && len(w.buffer) > 0 {
				e.fail(fmt.Errorf("core: %s/%s deadlock: worker %d stuck with %d buffered messages", job.Name, opts.Mode, w.id, len(w.buffer)))
			}
		}
	} else {
		timer := time.NewTimer(e.opts.Deadline)
		defer timer.Stop()
		select {
		case <-e.coord.done:
		case <-timer.C:
			e.coord.forceDone()
		}
		// The verdict is the clock's reading when done closed, not the
		// case select took: with both ready it picks one at random.
		deadlined = e.coord.doneAt >= e.opts.Deadline.Seconds()
	}
	e.sched.turns.Lock() // the last step and recovery are over: the workers' stats are final
	e.tee.stop()         // every seal the run produced is on disk before Run returns, error or not
	if err := e.err(); err != nil {
		return nil, err
	}

	stats := e.report(e.clock.Now())
	e.recov.report(&stats)
	e.tee.report(&stats)
	rs.report(&stats)
	e.wire.report(&stats)

	if err := e.wire.collect(); err != nil {
		return nil, err
	}
	res := &Result[T]{Values: e.values(), Stats: stats}
	if deadlined {
		return res, fmt.Errorf("core: %s/%s exceeded deadline %v: %w", job.Name, opts.Mode, e.opts.Deadline, context.DeadlineExceeded)
	}
	return res, nil
}

// engine holds the shared state of one run: the workers and what every
// one of them touches each round. What only one plane writes lives on
// that plane's value.
type engine[T any] struct {
	p       *partition.Partitioned
	job     Job[T]
	opts    Options
	workers []*worker[T]
	ctrl    Controller  // δ, one for every worker: no controller keeps state
	hsync   *hsyncState // Hsync's shared phase; nil under every other mode
	sched   sched[T]
	coord   coordinator
	clock   clock       // the worker loop's one time source: wall (run) or virtual (Simulate)
	pool    *msgPool[T] // the Session's: recycles message slices between senders and receivers

	roundTimes []uint64 // per-worker round-time EWMA as float bits

	ledger checkpoint.Ledger // the run's message counts; the coordinator reads it too

	// plane carries batches: in-proc unless the wire plane replaced it.
	plane msgPlane[T]

	// The planes beside the loop, each nil when its option is off. The
	// worker loop tests ckpt, recov and inj directly.
	ckpt  *checkpoint.Store[VMsg[T]]
	inj   *faultInjector
	recov *recovery[T]
	tee   *durableTee[T]
	wire  *wirePlane[T]

	errMu  sync.Mutex
	runErr error
}

// newEngine builds the workers of one run over the session's fragments,
// with opts' defaults filled in: on the wall clock and the in-proc
// message plane, or, given a timeline, with its clock, message plane and
// scheduler all on tl.
func newEngine[T any](s *Session, job Job[T], opts Options, tl Timeline) *engine[T] {
	p := s.p
	opts = opts.withDefaults()
	e := &engine[T]{
		p:          p,
		job:        job,
		opts:       opts,
		pool:       sessionPool[T](s),
		roundTimes: make([]uint64, p.M),
		clock:      wallClock{time.Now()},
	}
	if opts.Mode == Hsync {
		e.hsync = &hsyncState{}
	}
	e.ctrl = newController(opts, e.hsync)
	e.sched.e, e.sched.cores = e, &s.cores
	e.plane = &inproc[T]{e}
	if tl != nil {
		e.clock, e.plane, e.sched.tl = tl, &timelinePlane[T]{e, tl}, tl
	}
	e.coord.init(p.M, &e.ledger, e.clock)
	e.workers = make([]*worker[T], p.M)
	for i, f := range p.Frags {
		w := &worker[T]{
			id:       i,
			eng:      e,
			frag:     f,
			prog:     job.New(f),
			ctx:      newContext[T](f, p.M, e.pool),
			folder:   NewFolder[T](f),
			isActive: true,
		}
		e.workers[i] = w
	}
	return e
}

// report is the workers' section of RunStats: the per-worker entries and
// their totals, the arena estimate and the kernels' edge scans. A worker
// is computing or it is not, so its idle time is the rest of the run.
func (e *engine[T]) report(seconds float64) RunStats {
	stats := RunStats{Job: e.job.Name, Mode: e.opts.Mode.String(), Seconds: seconds}
	stats.Workers = make([]WorkerStats, e.p.M)
	for i, w := range e.workers {
		w.stats.IdleSeconds = seconds - w.stats.BusySeconds
		stats.Workers[i] = w.stats
		if sc, ok := w.prog.(ScanCounter); ok {
			stats.ScannedEdges += sc.ScannedEdges()
		}
	}
	stats.finalize()
	stats.ArenaBytes = arenaBytes(e.p, &e.job)
	return stats
}

// values assembles the answer from the workers' Programs.
func (e *engine[T]) values() []T {
	progs := make([]Program[T], e.p.M)
	for i, w := range e.workers {
		progs[i] = w.prog
	}
	return Assemble(e.p, progs)
}

func (e *engine[T]) fail(err error) {
	e.errMu.Lock()
	if e.runErr == nil {
		e.runErr = err
	}
	e.errMu.Unlock()
	e.coord.forceDone()
}

func (e *engine[T]) err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.runErr
}

// mean averages per-worker estimates published as float bits.
func mean(bits []uint64) float64 {
	var sum float64
	for i := range bits {
		sum += math.Float64frombits(atomic.LoadUint64(&bits[i]))
	}
	return sum / float64(len(bits))
}

// batch is one designated message M(i, j): the update-parameter changes
// shipped from worker i to worker j after a round, stamped with the
// sender's snapshot epoch at the round's end.
type batch[T any] struct {
	from  int32
	epoch int32
	msgs  []VMsg[T]
}

// inbox is the unbounded mailbox B_x̄i of a worker. put never blocks, so
// message passing cannot deadlock regardless of schedule. Two batch
// arrays alternate between the producer side and the draining worker, so
// steady-state rounds append into recycled capacity.
type inbox[T any] struct {
	mu      sync.Mutex
	batches []batch[T]
	spare   []batch[T]
}

func (ib *inbox[T]) put(b batch[T]) {
	ib.mu.Lock()
	ib.batches = append(ib.batches, b)
	ib.mu.Unlock()
}

// pending reports whether a batch waits to be drained.
func (ib *inbox[T]) pending() bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return len(ib.batches) > 0
}

func (ib *inbox[T]) take() []batch[T] {
	ib.mu.Lock()
	bs := ib.batches
	ib.batches = ib.spare
	ib.spare = nil
	ib.mu.Unlock()
	return bs
}

// release hands a drained batch array back for reuse by put.
func (ib *inbox[T]) release(bs []batch[T]) {
	clear(bs) // drop references to the recycled message slices
	ib.mu.Lock()
	if ib.spare == nil {
		ib.spare = bs[:0]
	}
	ib.mu.Unlock()
}

// coordinator tracks relative progress (r_i, r_min, r_max) and worker
// activity for termination detection: the run is complete when every
// worker is inactive and nothing is open on the run's ledger — the
// master's inactive/terminate/ack protocol of Section 3, realized with
// Mattern-style counts.
//
// Round counters, activity flags and the ledger are atomics, so the hot
// path and every progress snapshot (view) run without the global lock.
// Every change of relative progress raises progressed, which the
// scheduler's sweep takes down.
// The mutex serializes only activity transitions, which keeps the
// termination check sound: while it is held with activeCount == 0, no
// worker can send (sends happen in rounds, which only active workers
// execute) or drain (drains happen after setActive(true), which blocks
// on the same mutex), so a ledger with nothing open proves quiescence.
type coordinator struct {
	rounds  []atomic.Int32
	active  []atomic.Bool
	activeN atomic.Int32
	ledger  *checkpoint.Ledger

	progressed atomic.Bool

	mu       sync.Mutex // guards activity transitions and the finish check
	finished bool
	done     chan struct{}
	clock    clock
	doneAt   float64 // the clock's reading when done closed
}

func (c *coordinator) init(m int, l *checkpoint.Ledger, clk clock) {
	c.rounds = make([]atomic.Int32, m)
	c.active = make([]atomic.Bool, m)
	for i := range c.active {
		c.active[i].Store(true)
	}
	c.activeN.Store(int32(m))
	c.done = make(chan struct{})
	c.ledger = l
	c.clock = clk
}

func (c *coordinator) forceDone() {
	c.mu.Lock()
	if !c.finished {
		c.finish()
	}
	c.mu.Unlock()
}

// finish closes done and records when; c.mu is held.
func (c *coordinator) finish() {
	c.finished = true
	c.doneAt = c.clock.Now()
	close(c.done)
}

func (c *coordinator) roundDone(id int) int32 {
	r := c.rounds[id].Add(1)
	c.progressed.Store(true)
	return r
}

// reset rewinds the coordinator to a recovery cut: per-worker round
// counters from the snapshot, every worker active, and the ledger zeroed
// (the rollback re-adds the replayed in-flight messages as sent). Only
// called while no task runs and nothing is in flight, so no concurrent
// transition or count can race the wholesale rewrite.
func (c *coordinator) reset(rounds []int32) {
	c.mu.Lock()
	for i := range c.rounds {
		c.rounds[i].Store(rounds[i])
		c.active[i].Store(true)
	}
	c.activeN.Store(int32(len(c.rounds)))
	c.ledger.Reset()
	c.mu.Unlock()
}

func (c *coordinator) setActive(id int, active bool) {
	c.mu.Lock()
	if c.active[id].Load() != active {
		c.active[id].Store(active)
		if active {
			c.activeN.Add(1)
		} else {
			c.activeN.Add(-1)
		}
	}
	fire := !active && c.activeN.Load() == 0 && !c.ledger.Open() && !c.finished
	if fire {
		c.finish()
	}
	c.mu.Unlock()
	if !fire {
		c.progressed.Store(true)
	}
}

// view returns (r_min over active workers, r_max over all workers). When
// no worker is active r_min falls back to the caller's round. The
// snapshot is advisory (controllers tolerate slight staleness), so it
// reads the atomics without taking the lock.
func (c *coordinator) view(self int) (rmin, rmax int32) {
	rmin = int32(math.MaxInt32)
	for i := range c.rounds {
		r := c.rounds[i].Load()
		if r > rmax {
			rmax = r
		}
		if c.active[i].Load() && r < rmin {
			rmin = r
		}
	}
	if rmin == int32(math.MaxInt32) {
		rmin = c.rounds[self].Load()
	}
	return rmin, rmax
}

// arrive ends a batch's delivery limbo: it lands and wakes its worker.
func (e *engine[T]) arrive(to int, b batch[T]) {
	e.land(to, b)
	e.sched.wake(e.workers[to])
}

// land puts batch b in worker to's inbox and then counts it, so
// recovery's quiesce cannot clear it too early; it wakes nobody.
func (e *engine[T]) land(to int, b batch[T]) {
	e.workers[to].inbox.put(b)
	e.ledger.Arrived(int64(len(b.msgs)))
	e.recov.settle()
}

// drained counts a batch of n messages stamped stamp out of an inbox, and
// lets the snapshot store see whether that completes a pending epoch.
func (e *engine[T]) drained(n int64, stamp int32) {
	e.ledger.Drained(n, stamp)
	if e.ckpt != nil {
		e.ckpt.Drained(stamp)
	}
}

// lost accounts for a batch of n messages that an injected drop keeps
// from any inbox: arrived and drained at once, so termination, sealing
// and recovery stay live.
func (e *engine[T]) lost(n int64, stamp int32) {
	e.ledger.Arrived(n)
	e.drained(n, stamp)
}

// clock is the time the worker loop lives in, as seconds since the
// workers started. Every estimate the controllers see (s_i, t_i, T_idle)
// and every second RunStats reports is read off it, so the one loop runs
// unchanged on the wall clock and on an event loop's virtual time.
type clock interface {
	Now() float64
	// After runs f once d seconds have passed.
	After(d float64, f func())
}

// wallClock is the clock of Run.
type wallClock struct{ start time.Time }

func (c wallClock) Now() float64 { return time.Since(c.start).Seconds() }
func (c wallClock) After(d float64, f func()) {
	time.AfterFunc(time.Duration(d*float64(time.Second)), f)
}

// flush prices and delivers one round's batches, stamped with epoch.
// Delivery faults (drop/duplicate/delay) are injected here, at the
// boundary between the round and the inbox — the engine's stand-in for
// the network — so every plane sees them alike.
func (w *worker[T]) flush(out [][]VMsg[T], epoch int32) {
	e := w.eng
	var bytes int64
	for j, msgs := range out {
		if len(msgs) == 0 {
			continue
		}
		drop, dup, delay := e.inj.delivery(w.id)
		if drop {
			e.lost(int64(len(msgs)), epoch)
			e.pool.put(msgs)
			continue
		}
		if dup {
			// Receivers recycle drained slices, so the duplicate needs
			// its own copy; it is counted exactly like a real batch,
			// before any plane sees it.
			cp := append([]VMsg[T](nil), msgs...)
			e.ledger.Sent(int64(len(cp)), epoch)
			w.deliver(j, epoch, cp, delay)
		}
		for _, m := range msgs {
			bytes += int64(e.job.valueBytes(m.Val))
		}
		w.deliver(j, epoch, msgs, delay)
	}
	w.stats.BytesSent += bytes
}

// deliver hands one batch to the plane, after an injected delay if any.
func (w *worker[T]) deliver(to int, epoch int32, msgs []VMsg[T], delay time.Duration) {
	if delay > 0 {
		w.eng.clock.After(delay.Seconds(), func() { w.eng.plane.deliver(w.id, to, epoch, msgs) })
	} else {
		w.eng.plane.deliver(w.id, to, epoch, msgs)
	}
}

// worker is one virtual worker P_i.
type worker[T any] struct {
	id     int
	eng    *engine[T]
	frag   *partition.Fragment
	prog   Program[T]
	ctx    *Context[T]
	folder *Folder[T]

	inbox  inbox[T]
	buffer []VMsg[T]
	// runs says who sent the buffer: buffer[runs[k-1].end:runs[k].end]
	// came from runs[k].from, in consecutive batches (drain).
	runs []senderRun

	// The worker as a task of the scheduler. gen counts its decisions,
	// so a δ hold expiring can tell that a later decision superseded it;
	// due is the gen of the hold that expired, stalled a Faults.Stall in
	// force.
	task    atomic.Int32
	gen     atomic.Int64
	due     atomic.Int64
	stalled atomic.Bool

	// epoch is the worker's recorded snapshot epoch; pevalDone flips
	// when PEval has run, and is cleared by a from-scratch rollback.
	epoch     int32
	pevalDone bool

	stats         WorkerStats
	rounds        int32
	roundTimeEWMA float64
	rateEWMA      float64
	lastDrain     float64 // clock readings
	lastRoundEnd  float64
	isActive      bool
}

// senderRun is one run of the buffer's senders (worker.runs).
type senderRun struct{ from, end int32 }

// decide is the worker's scheduling decision at this instant, the part of
// Section 3's loop both drivers share; it never blocks. It drains the
// inbox into B_x̄i; a worker with nothing buffered flags itself inactive
// (buffered false) until a message arrives. Otherwise δ sets how long to
// hold the next round: at most 0 runs it now, Forever suspends the worker
// until relative progress changes, anything between holds it that long
// unless news (a message, progress) asks for a fresh decision first.
func (w *worker[T]) decide() (d float64, buffered bool) {
	w.drain()
	if len(w.buffer) == 0 {
		w.setActive(false)
		return Forever, false
	}
	v := w.view()
	d = w.eng.ctrl.Delay(v)
	if obs := w.eng.opts.Observe; obs != nil {
		obs(Event{Kind: Decide, Worker: w.id, Round: w.rounds, Time: w.eng.clock.Now(), View: v, Delay: d})
	}
	return d, true
}

func (w *worker[T]) setActive(active bool) {
	if w.isActive == active {
		return
	}
	w.isActive = active
	w.eng.coord.setActive(w.id, active)
}

// drain moves arrived batches from the inbox into the local buffer B_x̄i
// and refreshes the arrival-rate estimate s_i.
func (w *worker[T]) drain() {
	bs := w.inbox.take()
	if len(bs) == 0 {
		if bs != nil {
			w.inbox.release(bs)
		}
		return
	}
	n := 0
	for _, b := range bs {
		if w.eng.ckpt != nil {
			// Marker rule: a batch stamped with a newer epoch is the
			// first sign of that snapshot — record the cut before the
			// batch touches the buffer, so the captured buffer holds
			// only pre-cut messages. A batch stamped with an older
			// epoch is a late message without the token: copy it into
			// the snapshot's channel state, then process it normally.
			if b.epoch > w.epoch {
				w.record(b.epoch)
			}
			if b.epoch < w.epoch {
				w.eng.ckpt.Capture(checkpoint.Flight[VMsg[T]]{
					From: b.from, To: int32(w.id),
					Msgs: append([]VMsg[T](nil), b.msgs...),
				})
			}
		}
		n += len(b.msgs)
		w.buffer = append(w.buffer, b.msgs...)
		if k := len(w.runs) - 1; k >= 0 && w.runs[k].from == b.from {
			w.runs[k].end = int32(len(w.buffer))
		} else {
			w.runs = append(w.runs, senderRun{b.from, int32(len(w.buffer))})
		}
		w.eng.drained(int64(len(b.msgs)), b.epoch)
		w.eng.pool.put(b.msgs)
	}
	w.inbox.release(bs)
	w.stats.MsgsRecv += int64(n)
	if hs := w.eng.hsync; hs != nil {
		hs.processed.Add(int64(n))
	}
	now := w.eng.clock.Now()
	dt := now - w.lastDrain
	w.lastDrain = now
	if dt > 0 {
		inst := float64(n) / dt
		w.rateEWMA = 0.5*w.rateEWMA + 0.5*inst
	}
}

func (w *worker[T]) view() View {
	rmin, rmax := w.eng.coord.view(w.id)
	return View{
		Round:        w.rounds,
		RMin:         rmin,
		RMax:         rmax,
		RoundTime:    w.roundTimeEWMA,
		AvgRoundTime: mean(w.eng.roundTimes),
		Rate:         w.rateEWMA,
		IdleTime:     w.eng.clock.Now() - w.lastRoundEnd,
	}
}

// clearBuffer empties the buffer and its sender runs.
func (w *worker[T]) clearBuffer() {
	w.buffer = w.buffer[:0]
	w.runs = w.runs[:0]
}

// compute is the first half of a round: PEval, or IncEval over the buffer
// folded with f_aggr. It returns the round's designated messages and the
// work it reported; ok is false when it failed the run instead.
func (w *worker[T]) compute() (out [][]VMsg[T], work int64, ok bool) {
	e := w.eng
	if obs := e.opts.Observe; obs != nil {
		obs(Event{Kind: RoundStart, Worker: w.id, Round: w.rounds, Time: e.clock.Now()})
	}
	if w.rounds >= e.opts.MaxRounds {
		e.fail(fmt.Errorf("core: %s/%s worker %d exceeded %d rounds", e.job.Name, e.opts.Mode, w.id, e.opts.MaxRounds))
		return nil, 0, false
	}
	w.ctx.round = w.rounds
	if !w.pevalDone {
		w.pevalDone = true
		w.prog.PEval(w.ctx)
	} else {
		msgs, err := w.folder.Fold(w.buffer, e.job.Aggregate)
		if err != nil {
			e.fail(fmt.Errorf("core: %s worker %d round %d: from worker %d: %w", e.job.Name, w.id, w.rounds, w.noSlotSender(), err))
			return nil, 0, false
		}
		w.clearBuffer()
		w.prog.IncEval(msgs, w.ctx)
	}
	out, work = w.ctx.TakeOut()
	w.stats.Work += work
	return out, work, true
}

// noSlotSender names the worker that sent the first buffered message for
// a vertex this fragment has no slot for, the one Fold refused.
func (w *worker[T]) noSlotSender() int32 {
	var start int32
	for _, r := range w.runs {
		for _, m := range w.buffer[start:r.end] {
			if w.frag.Slot(m.V) < 0 {
				return r.from
			}
		}
		start = r.end
	}
	return -1
}

// finish is the second half of a round, once dur seconds of compute are
// behind it: it updates the round-time estimate t_i, delivers the round's
// total messages and reports the round to the coordinator. The batches carry
// w.epoch: a cut is recorded only at safepoint or in drain, both in this
// worker's steps, so none can come between the count and the delivery.
func (w *worker[T]) finish(out [][]VMsg[T], total int64, dur float64) {
	e := w.eng
	w.stats.BusySeconds += dur
	w.roundTimeEWMA = nextRoundTimeEWMA(w.roundTimeEWMA, dur)
	atomic.StoreUint64(&e.roundTimes[w.id], math.Float64bits(w.roundTimeEWMA))
	if total > 0 {
		// Counted before any plane sees a batch: a receiver may drain it,
		// and this worker go inactive, before this step goes on.
		w.stats.MsgsSent += total
		e.ledger.Sent(total, w.epoch)
		w.flush(out, w.epoch)
	}
	w.ctx.ReleaseOut(out)
	w.rounds = e.coord.roundDone(w.id)
	w.stats.Rounds = w.rounds
	w.lastRoundEnd = e.clock.Now()
	if e.ckpt != nil {
		if ev := e.opts.Checkpoint.EveryRounds; ev > 0 && w.rounds%ev == 0 {
			// Any worker may play master and announce the next epoch;
			// the store refuses while the previous one is recording.
			// Raise progress again: idle workers record when the sweep
			// wakes them, and a sweep may have taken roundDone's news
			// before the announcement became visible.
			if _, ok := e.ckpt.Announce(); ok {
				e.coord.progressed.Store(true)
			}
		}
	}
	if e.hsync != nil {
		_, rmax := e.coord.view(w.id)
		e.hsync.observe(rmax)
	}
}
