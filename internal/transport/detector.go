package transport

import (
	"fmt"
	"time"
)

// State is the liveness verdict of a Detector for one peer.
type State uint8

const (
	// Alive: traffic is arriving within the expected interval.
	Alive State = iota
	// Suspect: the silence is abnormally long; the peer may be dead or
	// the link merely slow. The engine keeps running but the plane
	// escalates monitoring (the state is sticky until traffic resumes).
	Suspect
	// Dead: the silence exceeded the death threshold; the plane reports
	// the peer via OnPeerDead exactly once and the engine triggers
	// recovery. Dead is terminal until Reset.
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Detector is the per-link failure suspicion state machine: a
// phi-accrual–style detector simplified to a scaled-interval rule.
// Every inbound frame (data, control, or heartbeat) is an Observe; a
// periodic Check compares the current silence against an adaptive
// expectation — an EWMA of past inter-arrival gaps — and against two
// hard floors:
//
//	suspect when silence > max(SuspectAfter, phiSuspect × mean gap)
//	dead    when silence > max(DeadAfter,    phiDead    × mean gap)
//
// The phi terms make the detector patient on links whose natural cadence
// is slow (long rounds, coarse heartbeats) without configuration; the
// absolute floors bound detection latency on fast links. All methods
// take explicit times, so the unit tests drive the machine with a fake
// clock and no real sleeps; the Detector is not goroutine-safe (the
// plane guards it with the link lock).
type Detector struct {
	// SuspectAfter and DeadAfter are the absolute silence floors.
	SuspectAfter time.Duration
	DeadAfter    time.Duration

	meanGap float64 // EWMA of inter-arrival gaps, seconds
	last    time.Time
	started bool
	state   State
	// timeouts counts Alive→Suspect transitions: the
	// RunStats.HeartbeatTimeouts figure.
	timeouts int64
}

// phiSuspect and phiDead scale the observed mean inter-arrival gap.
const (
	phiSuspect = 6
	phiDead    = 12
)

// NewDetector returns a detector with the given absolute thresholds.
func NewDetector(suspectAfter, deadAfter time.Duration) *Detector {
	return &Detector{SuspectAfter: suspectAfter, DeadAfter: deadAfter}
}

// Observe records an arrival at now. Any traffic revives a Suspect link;
// a Dead verdict is terminal (the peer was already reported — a late
// arrival must not un-kill it) until Reset.
func (d *Detector) Observe(now time.Time) {
	if d.state == Dead {
		return
	}
	if d.started {
		gap := now.Sub(d.last).Seconds()
		if gap < 0 {
			gap = 0
		}
		if d.meanGap == 0 {
			d.meanGap = gap
		} else {
			d.meanGap = 0.8*d.meanGap + 0.2*gap
		}
	}
	d.last = now
	d.started = true
	d.state = Alive
}

// Check evaluates the silence at now and returns the (possibly
// advanced) state. It only moves forward (Alive→Suspect→Dead); Observe
// moves back.
func (d *Detector) Check(now time.Time) State {
	if !d.started || d.state == Dead {
		return d.state
	}
	silence := now.Sub(d.last)
	if silence >= d.deadline(d.DeadAfter, phiDead) {
		if d.state != Dead {
			d.state = Dead
		}
		return d.state
	}
	if silence >= d.deadline(d.SuspectAfter, phiSuspect) {
		if d.state == Alive {
			d.state = Suspect
			d.timeouts++
		}
		return d.state
	}
	return d.state
}

// deadline is the effective threshold: the absolute floor stretched by
// the phi-scaled mean gap when the link's cadence is slower.
func (d *Detector) deadline(floor time.Duration, phi float64) time.Duration {
	adaptive := time.Duration(phi * d.meanGap * float64(time.Second))
	if adaptive > floor {
		return adaptive
	}
	return floor
}

// State returns the current verdict without advancing it.
func (d *Detector) State() State { return d.state }

// Timeouts returns how many times the detector transitioned into
// Suspect — the heartbeat-timeout count surfaced in RunStats.
func (d *Detector) Timeouts() int64 { return d.timeouts }

// Reset rearms a Dead detector after a successful reconnect handshake.
func (d *Detector) Reset(now time.Time) {
	d.state = Alive
	d.last = now
	d.started = true
	d.meanGap = 0
}
