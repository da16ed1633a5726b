package checkpoint

import "sync/atomic"

// Ledger counts one run's messages as they are sent, arrive and drain:
// termination reads "nothing open", recovery's quiesce "nothing in
// flight", and the snapshot seal "the pre-cut side balances". Sent and
// drained messages are kept by the parity of their batch's epoch stamp.
//
// Parity is enough because Announce refuses while an epoch is pending.
// So while epoch e is pending, the only live stamps are e and e−1: epoch
// e−1 sealed only once every stamp below it had drained, and no
// stamp-(e+1) message exists until e seals. e−1 and e never share a
// parity, so the stamp-(e−1) side balances exactly when every pre-cut
// message has drained.
//
// No count takes a lock. A message is counted sent before anything can
// arrive or drain it, and every reader loads the sent counts last, so a
// balance it sees held at some instant. The zero Ledger is ready to use.
type Ledger struct {
	sent, drained [2]atomic.Int64 // messages, by stamp parity
	arrived       atomic.Int64    // messages put in an inbox or dropped
}

// Sent, Arrived and Drained count n messages of a batch stamped stamp:
// sent before any plane sees it, arrived in an inbox, drained out of it.
// An injected drop arrives and drains at once.
func (l *Ledger) Sent(n int64, stamp int32)    { l.sent[stamp&1].Add(n) }
func (l *Ledger) Arrived(n int64)              { l.arrived.Add(n) }
func (l *Ledger) Drained(n int64, stamp int32) { l.drained[stamp&1].Add(n) }

// Open reports whether a sent message has not drained yet, InFlight
// whether one has not arrived yet.
func (l *Ledger) Open() bool     { return total(&l.drained) != total(&l.sent) }
func (l *Ledger) InFlight() bool { return l.arrived.Load() != total(&l.sent) }

func total(c *[2]atomic.Int64) int64 { return c[0].Load() + c[1].Load() }

// balanced reports whether every message of stamp's parity has drained.
func (l *Ledger) balanced(stamp int32) bool {
	return l.drained[stamp&1].Load() == l.sent[stamp&1].Load()
}

// Reset zeroes every count. The caller makes sure nothing is sent,
// arrives or drains meanwhile: a rollback, every worker parked.
func (l *Ledger) Reset() {
	for _, c := range [...]*atomic.Int64{&l.sent[0], &l.sent[1], &l.drained[0], &l.drained[1], &l.arrived} {
		c.Store(0)
	}
}
