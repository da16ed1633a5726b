// Package checkpoint implements Chandy-Lamport distributed snapshots
// (Section 6 of the paper): GRAPE+ adapts them for fault tolerance
// because asynchronous runs have no superstep boundary to check-point at.
//
// The protocol is the paper's: the master broadcasts a checkpoint
// request carrying a token (here an epoch number); a worker that sees
// the token for the first time records its local state before sending
// any further messages and stamps subsequent messages with the new
// epoch; messages that arrive late without the token are added to the
// snapshot as in-flight channel state. The resulting global state is
// consistent: no message is lost or duplicated across the cut.
//
// Store is the collector half of that protocol, generic over the
// message type so the engine can snapshot real designated-message
// batches. The engine side supplies the marker discipline: stamp every
// batch with the sender's epoch at handoff, record a worker's cut
// before delivering any batch stamped with a newer epoch, and count
// every message in the run's Ledger (then Store.Drained on each drain)
// so the Store knows when no pre-cut message is left and the epoch can
// seal.
package checkpoint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrFutureEpoch is returned by Record when a worker offers a cut for an
// epoch that has never been announced. A record from the future would
// let a buggy caller seal a snapshot no marker ever propagated, so the
// store rejects it by name and the engine can tell the misuse apart from
// the benign already-sealed race.
var ErrFutureEpoch = errors.New("checkpoint: record for an unannounced future epoch")

// Flight is channel state crossing the cut: messages that were sent
// before the sender recorded epoch e but drained after the receiver
// did. On recovery they are re-injected through the normal inbox path.
type Flight[M any] struct {
	From, To int32
	Msgs     []M
}

// Snapshot is a consistent global state: per-worker serialized program
// state, per-worker round counters, and the in-flight messages across
// the cut.
type Snapshot[M any] struct {
	Epoch     int32
	States    [][]byte
	Rounds    []int32
	PEvalDone []bool
	InFlight  []Flight[M]
}

// Bytes returns the serialized size of the snapshot's program state,
// the figure reported as bytes/snapshot overhead.
func (s *Snapshot[M]) Bytes() int {
	n := 0
	for _, st := range s.States {
		n += len(st)
	}
	return n
}

// Store assembles snapshots for one run. One epoch is in flight at a
// time: Announce refuses to start epoch e+1 until epoch e has sealed,
// which keeps the marker algebra trivial (every live batch is stamped
// with either the pending epoch or the one before it).
type Store[M any] struct {
	announced atomic.Int32 // highest epoch announced; workers poll this
	ledger    *Ledger      // the run's message counts; the seal reads the pre-cut side

	mu          sync.Mutex
	n           int
	recorded    []int32      // per-worker highest epoch recorded
	pending     *Snapshot[M] // epoch being assembled
	sealed      *Snapshot[M] // last complete snapshot
	sealedEpoch atomic.Int32 // == sealed.Epoch, lock-free read

	sealedCount atomic.Int64 // snapshots sealed over the run
	sealedBytes atomic.Int64 // cumulative serialized state bytes sealed

	onSeal func(*Snapshot[M]) // seal tee, see SetOnSeal
}

// SetOnSeal registers fn to run with every snapshot the moment it seals
// (the durable tee). fn is called with the store's lock held, on the
// goroutine that completed the seal: it must be O(1) and non-blocking —
// queue the write, don't write it to disk inline.
func (s *Store[M]) SetOnSeal(fn func(*Snapshot[M])) {
	s.mu.Lock()
	s.onSeal = fn
	s.mu.Unlock()
}

// Seed installs snap as the store's sealed snapshot without counting it
// toward SealedCount/SealedBytes: the resume path re-enters the seal
// protocol exactly where the writing run left it, so the next Announce
// starts epoch snap.Epoch+1 and rollback falls back to snap until a
// newer epoch seals.
func (s *Store[M]) Seed(snap *Snapshot[M]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = snap
	s.sealedEpoch.Store(snap.Epoch)
	s.announced.Store(snap.Epoch)
	for i := range s.recorded {
		s.recorded[i] = snap.Epoch
	}
	s.pending = nil
}

// SealedCount returns how many snapshots have sealed over the run.
func (s *Store[M]) SealedCount() int64 { return s.sealedCount.Load() }

// SealedBytes returns the cumulative serialized program-state bytes of
// all sealed snapshots, the numerator of the bytes/snapshot overhead.
func (s *Store[M]) SealedBytes() int64 { return s.sealedBytes.Load() }

// NewStore creates a store for n workers whose messages l counts. Epoch
// 0 means "no snapshot": recovery from epoch 0 is a fresh restart.
func NewStore[M any](n int, l *Ledger) *Store[M] {
	return &Store[M]{n: n, ledger: l, recorded: make([]int32, n)}
}

// Announce begins snapshot epoch e+1 and returns it. It refuses while
// the previous epoch is still recording (ok=false), so callers simply
// retry at the next boundary.
func (s *Store[M]) Announce() (int32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending != nil {
		return 0, false
	}
	e := s.announced.Load() + 1
	s.pending = &Snapshot[M]{
		Epoch:     e,
		States:    make([][]byte, s.n),
		Rounds:    make([]int32, s.n),
		PEvalDone: make([]bool, s.n),
	}
	s.announced.Store(e)
	return e, true
}

// AnnouncedEpoch returns the highest announced epoch; workers compare
// it against their own recorded epoch at safe points.
func (s *Store[M]) AnnouncedEpoch() int32 { return s.announced.Load() }

// SealedEpoch returns the epoch of the last complete snapshot, 0 if
// none has sealed yet.
func (s *Store[M]) SealedEpoch() int32 { return s.sealedEpoch.Load() }

// Record stores worker w's local cut for epoch: its serialized program
// state, round counter, whether PEval has run, and the pre-cut messages
// sitting in its buffer at record time (already part of the channel
// state — the engine guarantees the buffer holds no post-cut message
// when it records). The Store takes ownership of state and flights.
func (s *Store[M]) Record(w, epoch int32, state []byte, rounds int32, pevalDone bool, inFlight []Flight[M]) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.announced.Load(); epoch > a {
		return fmt.Errorf("%w: worker %d offered epoch %d, announced %d", ErrFutureEpoch, w, epoch, a)
	}
	if s.pending == nil || s.pending.Epoch != epoch {
		return fmt.Errorf("checkpoint: record for epoch %d but pending is %v", epoch, s.pendingEpochLocked())
	}
	if s.recorded[w] >= epoch {
		return fmt.Errorf("checkpoint: worker %d already recorded epoch %d", w, epoch)
	}
	s.recorded[w] = epoch
	s.pending.States[w] = state
	s.pending.Rounds[w] = rounds
	s.pending.PEvalDone[w] = pevalDone
	s.pending.InFlight = append(s.pending.InFlight, inFlight...)
	s.trySealLocked()
	return nil
}

// Capture adds a late batch to the pending snapshot's channel state: it
// was stamped before the sender's cut but drained after the receiver's.
// The caller must pass copies (the engine recycles batch slices) and
// must call Capture before the ledger counts the batch drained.
func (s *Store[M]) Capture(f Flight[M]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending != nil {
		s.pending.InFlight = append(s.pending.InFlight, f)
	}
}

// Drained follows the ledger's count of a drained batch stamped stamp.
// Only a pre-cut batch (stamp below the announced epoch) drained while
// an epoch is pending can complete the seal, so only it takes the lock.
func (s *Store[M]) Drained(stamp int32) {
	if stamp >= s.announced.Load() {
		return
	}
	s.mu.Lock()
	s.trySealLocked()
	s.mu.Unlock()
}

// Sealed returns the last complete snapshot, nil if none has sealed.
// The snapshot is shared: callers must copy message slices before
// mutating or re-injecting them.
func (s *Store[M]) Sealed() *Snapshot[M] {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealed
}

// Reset abandons any pending epoch; recovery calls it after a rollback
// destroys every in-flight message (and zeroes the ledger that counted
// them). The announced epoch rewinds to the sealed one so stamping
// resumes consistently and the next Announce starts a fresh epoch.
func (s *Store[M]) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = nil
	e := int32(0)
	if s.sealed != nil {
		e = s.sealed.Epoch
	}
	s.announced.Store(e)
	for i := range s.recorded {
		s.recorded[i] = e
	}
}

func (s *Store[M]) pendingEpochLocked() interface{} {
	if s.pending == nil {
		return nil
	}
	return s.pending.Epoch
}

// trySealLocked promotes the pending snapshot once (a) every worker has
// recorded it and (b) every message stamped e−1 has drained (the
// ledger's stamp-(e−1) side balances) — the Chandy-Lamport completion
// condition: all channel state has been captured.
func (s *Store[M]) trySealLocked() {
	if s.pending == nil {
		return
	}
	e := s.pending.Epoch
	for _, r := range s.recorded {
		if r < e {
			return
		}
	}
	if !s.ledger.balanced(e - 1) {
		return
	}
	s.sealed = s.pending
	s.pending = nil
	s.sealedEpoch.Store(e)
	s.sealedCount.Add(1)
	s.sealedBytes.Add(int64(s.sealed.Bytes()))
	if s.onSeal != nil {
		s.onSeal(s.sealed)
	}
}
