package core

import (
	"sync/atomic"
	"time"

	"aap/internal/checkpoint"
	"aap/internal/transport"
)

// Faults is a run's one fault plan: every fault it injects, at each of
// the four layers it reaches.
//
//   - Delivery (DropProb, DupProb, DelayProb): seeded verdicts on whole
//     batches, above every message plane. The same Faults value against
//     the same run produces the same schedule: a verdict is decided by
//     hashing (Seed, sender, per-sender batch sequence number), not by a
//     shared random stream, so the nth batch worker i hands off draws
//     the same verdict regardless of goroutine interleaving.
//   - Workers (Kill, Stall): one worker dies, or freezes, at a round.
//   - Links (Partitions): windows that blackhole TCP-plane links, below
//     the plane.
//   - Disk (Disk): the durable store's filesystem.
//
// Each layer acts alone: a plan that sets only Partitions or Disk
// delivers every batch untouched and kills or stalls no worker.
type Faults struct {
	// Seed drives every probabilistic decision.
	Seed int64

	// Kill simulates the death of one worker: its program state is
	// discarded and rebuilt from the last sealed checkpoint (or from
	// scratch when none has sealed) through a global rollback.
	Kill *KillSpec

	// Stall freezes one worker for a duration when it reaches a round,
	// modeling a straggler or a hung host; used with Options.Deadline
	// to exercise graceful degradation.
	Stall *StallSpec

	// DelayProb delays a delivered batch by DelayBy with this
	// probability: the one seeded, replayable way to randomize a run's
	// schedule (TestChurchRosserSSSP draws its schedules from it), and at
	// 1 the way to slow every batch by the same wall time.
	DelayProb float64
	DelayBy   time.Duration

	// DupProb duplicates a delivered batch with this probability. The
	// engine compensates the termination counters, and idempotent
	// min-fold kernels (SSSP, CC) are unaffected by the duplicate;
	// sum-fold kernels are not safe under duplication.
	DupProb float64

	// DropProb drops a batch with this probability. Dropping voids the
	// determinism contract (the lost update never arrives); it exists
	// to prove liveness — the run must still terminate.
	DropProb float64

	// Partitions blackhole links of the run's TCP plane for fixed
	// windows from the plane's start (see transport.Window). Link 0
	// carries every batch in TCP mode; worker k's remote host rides
	// link M+1+k. They act only on a run with a TCP plane
	// (Transport.TCP or RemoteWorkers), and change nothing else.
	Partitions []transport.Window

	// Disk replaces the filesystem of the durable store (Run's records,
	// Resume's reads): the disk-failure seam. It acts only with a
	// Checkpoint.Dir; nil uses the real filesystem.
	Disk checkpoint.FS
}

// KillSpec kills Worker when it reaches Round; it fires exactly once
// per run, surviving the round rollback that recovery performs.
type KillSpec struct {
	Worker int
	Round  int32
}

// StallSpec freezes Worker for For when it reaches Round; fires once.
type StallSpec struct {
	Worker int
	Round  int32
	For    time.Duration
}

// faultInjector evaluates a Faults plan at the engine's fault points.
type faultInjector struct {
	f          Faults
	killFired  atomic.Bool
	stallFired atomic.Bool
	seq        []atomic.Uint64 // per-sender delivery sequence numbers
}

func newFaultInjector(f Faults, m int) *faultInjector {
	return &faultInjector{f: f, seq: make([]atomic.Uint64, m)}
}

// shouldKill reports whether worker w dying at round r is this run's
// scheduled kill; the CAS makes it fire exactly once even though the
// rollback rewinds w's round counter past the trigger again.
func (fi *faultInjector) shouldKill(w int, r int32) bool {
	k := fi.f.Kill
	if k == nil || w != k.Worker || r < k.Round {
		return false
	}
	return fi.killFired.CompareAndSwap(false, true)
}

// shouldStall reports whether worker w stalls at round r, and for how
// long.
func (fi *faultInjector) shouldStall(w int, r int32) (time.Duration, bool) {
	s := fi.f.Stall
	if s == nil || w != s.Worker || r < s.Round {
		return 0, false
	}
	if !fi.stallFired.CompareAndSwap(false, true) {
		return 0, false
	}
	return s.For, true
}

// delivery draws the verdict for the next batch sender `from` hands
// off: drop wins over dup, and delay composes with either. A nil
// injector (no Options.Faults) delivers every batch untouched.
func (fi *faultInjector) delivery(from int) (drop, dup bool, delay time.Duration) {
	if fi == nil || fi.f.DropProb <= 0 && fi.f.DupProb <= 0 && fi.f.DelayProb <= 0 {
		return false, false, 0
	}
	seq := fi.seq[from].Add(1)
	h := splitmix64(uint64(fi.f.Seed) ^ uint64(from)*0x9E3779B97F4A7C15 ^ seq<<17)
	drop = unit(h) < fi.f.DropProb
	h = splitmix64(h)
	dup = !drop && unit(h) < fi.f.DupProb
	h = splitmix64(h)
	if unit(h) < fi.f.DelayProb {
		delay = fi.f.DelayBy
	}
	return drop, dup, delay
}

// splitmix64 is the standard 64-bit finalizer; one application per
// decision keeps verdicts independent.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }
