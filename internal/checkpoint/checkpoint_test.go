package checkpoint_test

import (
	"math/rand"
	"sync"
	"testing"

	"aap/internal/checkpoint"
	"aap/internal/codec"
)

// node simulates one engine worker following the marker discipline the
// engine implements: stamp sends with the sender's epoch, record the
// local cut before draining any batch stamped with a newer epoch,
// capture late batches, count every message in the run's ledger.
type node struct {
	id    int32
	state int64
	epoch int32
}

type batch struct {
	from, to int32
	stamp    int32
	msgs     []int64
}

type sim struct {
	mu     sync.Mutex
	ledger checkpoint.Ledger
	store  *checkpoint.Store[int64]
	nodes  []*node
}

func newSim(states []int64) *sim {
	s := &sim{}
	s.store = checkpoint.NewStore[int64](len(states), &s.ledger)
	for i, v := range states {
		s.nodes = append(s.nodes, &node{id: int32(i), state: v})
	}
	return s
}

// send debits the sender and hands off a batch stamped with the
// sender's current epoch, like the engine's flush handoff.
func (s *sim) send(from, to int32, vals []int64) batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[from]
	for _, v := range vals {
		n.state -= v
	}
	b := batch{from: from, to: to, stamp: n.epoch, msgs: vals}
	s.ledger.Sent(int64(len(vals)), b.stamp)
	return b
}

// drain delivers a batch at its destination, recording the receiver's
// cut first if the batch carries a newer epoch (the marker rule), and
// capturing the batch as channel state if it predates the receiver's
// cut (the late-message rule).
func (s *sim) drain(b batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[b.to]
	if b.stamp > n.epoch {
		s.recordLocked(n, b.stamp)
	}
	if b.stamp < n.epoch {
		s.store.Capture(checkpoint.Flight[int64]{
			From: b.from, To: b.to, Msgs: append([]int64(nil), b.msgs...),
		})
	}
	for _, v := range b.msgs {
		n.state += v
	}
	s.ledger.Drained(int64(len(b.msgs)), b.stamp)
	s.store.Drained(b.stamp)
}

// poll is the safe-point check: a node with no incoming marker still
// records when it notices the announced epoch advanced.
func (s *sim) poll(i int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[i]
	if e := s.store.AnnouncedEpoch(); e > n.epoch {
		s.recordLocked(n, e)
	}
}

func (s *sim) recordLocked(n *node, epoch int32) {
	st := codec.AppendInt64(nil, n.state)
	if err := s.store.Record(n.id, epoch, st, 0, true, nil); err != nil {
		panic(err)
	}
	n.epoch = epoch
}

// total decodes a snapshot's conserved quantity: recorded states plus
// in-flight values.
func total(t *testing.T, snap *checkpoint.Snapshot[int64]) int64 {
	t.Helper()
	var sum int64
	for _, st := range snap.States {
		r := codec.NewReader(st)
		sum += r.Int64()
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
	for _, f := range snap.InFlight {
		for _, v := range f.Msgs {
			sum += v
		}
	}
	return sum
}

// TestSnapshotConservesTotal runs concurrent random transfers while
// taking snapshots and checks the Chandy-Lamport consistency invariant:
// every sealed snapshot's total (states + in-flight) equals the initial
// total.
func TestSnapshotConservesTotal(t *testing.T) {
	const procs = 8
	const initial = 1000
	states := make([]int64, procs)
	for i := range states {
		states[i] = initial
	}
	s := newSim(states)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var queue []batch
			for {
				select {
				case <-stop:
					for _, b := range queue {
						s.drain(b)
					}
					return
				default:
				}
				from, to := rng.Intn(procs), rng.Intn(procs)
				if from == to {
					continue
				}
				queue = append(queue, s.send(int32(from), int32(to), []int64{int64(rng.Intn(5))}))
				// Drain a random queued batch, possibly out of order.
				if len(queue) > 3 {
					i := rng.Intn(len(queue))
					s.drain(queue[i])
					queue = append(queue[:i], queue[i+1:]...)
				}
				s.poll(int32(rng.Intn(procs)))
			}
		}(int64(w))
	}

	for epoch := 0; epoch < 20; epoch++ {
		s.store.Announce()
		for i := 0; i < procs; i++ {
			s.poll(int32(i))
		}
	}
	close(stop)
	wg.Wait()
	// Everything drained: the final pending epoch (if any) can seal once
	// all nodes record it.
	for i := 0; i < procs; i++ {
		s.poll(int32(i))
	}
	snap := s.store.Sealed()
	if snap == nil {
		t.Fatal("no snapshot sealed")
	}
	if got := total(t, snap); got != procs*initial {
		t.Fatalf("snapshot total %d, want %d", got, procs*initial)
	}
}

// TestQuiescentSnapshotMatchesState: with no traffic, the snapshot
// seals as soon as every worker records, with no channel state.
func TestQuiescentSnapshotMatchesState(t *testing.T) {
	s := newSim([]int64{5, 7, 11})
	if _, ok := s.store.Announce(); !ok {
		t.Fatal("announce refused on idle store")
	}
	for i := int32(0); i < 3; i++ {
		s.poll(i)
	}
	snap := s.store.Sealed()
	if snap == nil {
		t.Fatal("epoch did not seal with all recorded and nothing outstanding")
	}
	if got := total(t, snap); got != 23 {
		t.Fatalf("total %d, want 23", got)
	}
	if len(snap.InFlight) != 0 {
		t.Fatalf("unexpected in-flight messages: %v", snap.InFlight)
	}
}

// TestLateMessageRecordedAsChannelState pins the Section 6 rule: a
// message sent before the snapshot but drained after the receiver
// recorded goes into the channel state, and the epoch cannot seal until
// that message has drained.
func TestLateMessageRecordedAsChannelState(t *testing.T) {
	s := newSim([]int64{100, 100})
	b := s.send(0, 1, []int64{30}) // in flight, pre-snapshot
	s.store.Announce()
	s.poll(0)
	s.poll(1)
	if s.store.Sealed() != nil {
		t.Fatal("sealed while a pre-cut batch was still outstanding")
	}
	s.drain(b) // arrives without the token
	snap := s.store.Sealed()
	if snap == nil {
		t.Fatal("epoch did not seal after the late batch drained")
	}
	if len(snap.InFlight) != 1 || snap.InFlight[0].Msgs[0] != 30 {
		t.Fatalf("in-flight = %v, want the 30-unit transfer", snap.InFlight)
	}
	if got := total(t, snap); got != 200 {
		t.Fatalf("total %d, want 200", got)
	}
	// The sender's recorded state must show the deduction, the
	// receiver's must not show the delivery.
	if codec.NewReader(snap.States[0]).Int64() != 70 {
		t.Fatalf("sender state = %v, want 70", snap.States[0])
	}
	if codec.NewReader(snap.States[1]).Int64() != 100 {
		t.Fatalf("receiver state = %v, want 100", snap.States[1])
	}
}

// TestPostSnapshotMessageExcluded pins the complementary rule: messages
// stamped with the new epoch are not channel state.
func TestPostSnapshotMessageExcluded(t *testing.T) {
	s := newSim([]int64{100, 100})
	s.store.Announce()
	s.poll(0)
	b := s.send(0, 1, []int64{30}) // carries the token
	s.drain(b)                     // receiver records on the marker, then applies
	snap := s.store.Sealed()
	if snap == nil {
		t.Fatal("epoch did not seal")
	}
	if len(snap.InFlight) != 0 {
		t.Fatalf("post-snapshot message leaked into channel state: %v", snap.InFlight)
	}
	if codec.NewReader(snap.States[0]).Int64() != 100 || codec.NewReader(snap.States[1]).Int64() != 100 {
		t.Fatal("states must be pre-send values")
	}
}

// TestAnnounceGatedOnSeal: only one epoch is in flight at a time.
func TestAnnounceGatedOnSeal(t *testing.T) {
	s := newSim([]int64{1, 2})
	if _, ok := s.store.Announce(); !ok {
		t.Fatal("first announce refused")
	}
	if _, ok := s.store.Announce(); ok {
		t.Fatal("second announce accepted while first epoch still recording")
	}
	s.poll(0)
	s.poll(1)
	if e, ok := s.store.Announce(); !ok || e != 2 {
		t.Fatalf("announce after seal = (%d, %v), want (2, true)", e, ok)
	}
}

// TestResetRewindsToSealed: recovery abandons the pending epoch and
// zeroes the ledger beside the store, forgetting the messages in flight;
// announcing afterwards starts the next epoch after the sealed one.
func TestResetRewindsToSealed(t *testing.T) {
	s := newSim([]int64{1, 2})
	s.store.Announce()
	s.poll(0)
	s.poll(1) // epoch 1 seals
	s.store.Announce()
	s.send(0, 1, []int64{1}) // batch in flight, never drained (lost in the crash)
	s.poll(0)
	s.store.Reset()
	s.ledger.Reset()
	if got := s.store.AnnouncedEpoch(); got != 1 {
		t.Fatalf("announced after reset = %d, want 1", got)
	}
	if snap := s.store.Sealed(); snap == nil || snap.Epoch != 1 {
		t.Fatalf("sealed snapshot lost across reset: %v", snap)
	}
	// The post-reset epoch must be able to seal even though the lost
	// batch was never drained.
	s.store.Announce()
	s.nodes[0].epoch, s.nodes[1].epoch = 1, 1
	s.poll(0)
	s.poll(1)
	if snap := s.store.Sealed(); snap == nil || snap.Epoch != 2 {
		t.Fatalf("epoch 2 did not seal after reset: %v", snap)
	}
}

// TestRecordMisuse: recording for a non-pending epoch or twice for the
// same epoch errors instead of corrupting the snapshot.
func TestRecordMisuse(t *testing.T) {
	st := checkpoint.NewStore[int64](2, &checkpoint.Ledger{})
	if err := st.Record(0, 1, nil, 0, false, nil); err == nil {
		t.Fatal("record with no pending epoch must error")
	}
	st.Announce()
	if err := st.Record(0, 1, nil, 0, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Record(0, 1, nil, 0, false, nil); err == nil {
		t.Fatal("double record must error")
	}
}
