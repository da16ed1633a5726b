package checkpoint_test

import (
	"testing"

	"aap/internal/checkpoint"
)

// TestLedgerCounts: a sent message is open and in flight until it
// arrives, open until it drains, and Reset forgets it.
func TestLedgerCounts(t *testing.T) {
	var l checkpoint.Ledger
	if l.Open() || l.InFlight() {
		t.Fatal("zero ledger is open or in flight")
	}
	l.Sent(3, 0)
	l.Sent(2, 1)
	if !l.Open() || !l.InFlight() {
		t.Fatal("sent messages neither open nor in flight")
	}
	l.Arrived(5)
	if !l.Open() || l.InFlight() {
		t.Fatalf("arrived messages: open %v, in flight %v; want open, not in flight", l.Open(), l.InFlight())
	}
	l.Drained(3, 0)
	if !l.Open() {
		t.Fatal("closed with the stamp-1 messages undrained")
	}
	l.Drained(2, 1)
	if l.Open() {
		t.Fatal("open with every message drained")
	}
	l.Sent(4, 7)
	l.Reset()
	if l.Open() || l.InFlight() {
		t.Fatal("reset ledger is open or in flight")
	}
}

// TestLedgerSealsOnThePreCutSide pins the parity rule with epoch 2
// pending (epoch 1 sealed): an open stamp-2 message does not hold the
// seal, an open stamp-1 message does, and the seal fires once that
// message drains, whichever of its drain and the last Record comes last.
func TestLedgerSealsOnThePreCutSide(t *testing.T) {
	// pending2 seals epoch 1 over two quiet nodes and announces epoch 2.
	pending2 := func(t *testing.T) *sim {
		s := newSim([]int64{100, 100})
		s.store.Announce()
		s.poll(0)
		s.poll(1)
		if e, ok := s.store.Announce(); s.store.SealedEpoch() != 1 || !ok || e != 2 {
			t.Fatalf("sealed %d, announce = (%d, %v); want sealed 1, announce (2, true)", s.store.SealedEpoch(), e, ok)
		}
		return s
	}
	sealed := func(t *testing.T, s *sim, want bool, when string) {
		t.Helper()
		if got := s.store.SealedEpoch() == 2; got != want {
			t.Fatalf("%s: epoch 2 sealed %v, want %v", when, got, want)
		}
	}

	t.Run("open stamp-e message", func(t *testing.T) {
		s := pending2(t)
		s.poll(0)
		b := s.send(0, 1, []int64{30}) // stamped 2, the parity of stamp 0
		s.poll(1)
		sealed(t, s, true, "all recorded, a stamp-2 message open")
		s.drain(b)
		if snap := s.store.Sealed(); len(snap.InFlight) != 0 || total(t, snap) != 200 {
			t.Fatalf("epoch 2 snapshot: in flight %v, total %d; want none and 200", snap.InFlight, total(t, snap))
		}
	})

	t.Run("open stamp-(e-1) message, drain last", func(t *testing.T) {
		s := pending2(t)
		b := s.send(0, 1, []int64{30}) // stamped 1: pre-cut
		s.poll(0)
		s.poll(1)
		sealed(t, s, false, "all recorded, a stamp-1 message open")
		s.drain(b)
		sealed(t, s, true, "the stamp-1 message drained")
		if snap := s.store.Sealed(); len(snap.InFlight) != 1 || total(t, snap) != 200 {
			t.Fatalf("epoch 2 snapshot: in flight %v, total %d; want the 30-unit transfer and 200", snap.InFlight, total(t, snap))
		}
	})

	t.Run("open stamp-(e-1) message, record last", func(t *testing.T) {
		s := pending2(t)
		b := s.send(0, 1, []int64{30}) // stamped 1: pre-cut
		s.poll(1)
		s.drain(b) // late at node 1: channel state
		sealed(t, s, false, "the stamp-1 message drained, node 0 not recorded")
		s.poll(0)
		sealed(t, s, true, "the last record")
		if snap := s.store.Sealed(); len(snap.InFlight) != 1 || total(t, snap) != 200 {
			t.Fatalf("epoch 2 snapshot: in flight %v, total %d; want the 30-unit transfer and 200", snap.InFlight, total(t, snap))
		}
	})
}
