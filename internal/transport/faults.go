package transport

import (
	"errors"
	"net"
	"sync/atomic"
	"time"
)

// Partition injection for the TCP plane (Config.Partitions). It composes
// with the engine's delivery faults, which act above the plane on whole
// batches, by acting below it, on the conns themselves.
//
// A partition Window blackholes a link by blocking its conns' reads and
// writes, in both directions, until the window closes. Because the link
// contract is a reliable ordered stream (per-link FIFO, at-most-once —
// see the package doc), a healed partition resumes with zero frame loss:
// the detector walks Alive→Suspect and back with no restart. A window
// that outlasts DeadAfter ends in a real OnPeerDead verdict.
//
// Windows are fixed offsets from the plane's start, so a schedule
// replays identically across runs. The one approximation: a read
// already blocked in the kernel when a window opens can still return
// bytes that arrived before it — gating happens at call boundaries, not
// mid-syscall.

// Window is one partition interval on one link, as an offset from the
// plane's start: [After, After+For).
type Window struct {
	Link  int32
	After time.Duration
	For   time.Duration
}

// linkUnknown marks a conn admitted but not yet past its Hello; no
// window applies to it until setLink names its link.
const linkUnknown int32 = -1

// PartitionSchedule builds n equally spaced partition windows on one
// link: window k covers [start + k*every, start + k*every + dur).
// Keeping dur above the detector's SuspectAfter but below DeadAfter
// makes the schedule a pure false-positive probe: every window must end
// Suspect→Alive with zero restarts.
func PartitionSchedule(link int32, n int, start, every, dur time.Duration) []Window {
	ws := make([]Window, 0, n)
	for k := 0; k < n; k++ {
		ws = append(ws, Window{Link: link, After: start + time.Duration(k)*every, For: dur})
	}
	return ws
}

// errFaultClosed aborts an I/O call blocked in a partition window when
// the plane shuts down, so Close never waits out a schedule.
var errFaultClosed = errors.New("transport: plane closed during fault window")

// gate returns conn gated by the plane's partition windows. id may be
// linkUnknown until the handshake names the link (setLink).
func (p *Plane) gate(conn net.Conn, id int32) *faultConn {
	fc := &faultConn{Conn: conn, windows: p.cfg.Partitions, start: p.start, done: p.done}
	fc.link.Store(id)
	return fc
}

// unwrapConn recovers the underlying conn (for TCP socket options).
func unwrapConn(c net.Conn) net.Conn {
	if fc, ok := c.(*faultConn); ok {
		return fc.Conn
	}
	return c
}

// faultConn gates one conn's I/O through the partition windows: a read
// or write that falls inside a window on its link blocks until the
// window closes (or the plane does). Deadlines still apply to the
// underlying I/O, so a handshake gated past its deadline fails and
// retries like any slow network.
type faultConn struct {
	net.Conn
	windows []Window
	link    atomic.Int32
	start   time.Time
	done    <-chan struct{}
}

func (c *faultConn) setLink(id int32) { c.link.Store(id) }

func (c *faultConn) Write(b []byte) (int, error) {
	if err := c.wait(); err != nil {
		return 0, err
	}
	return c.Conn.Write(b)
}

func (c *faultConn) Read(b []byte) (int, error) {
	if err := c.wait(); err != nil {
		return 0, err
	}
	return c.Conn.Read(b)
}

// wait blocks while a window on the conn's link is open, re-checking in
// case windows overlap or abut.
func (c *faultConn) wait() error {
	for {
		d := c.openFor(time.Since(c.start))
		if d <= 0 {
			return nil
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-c.done:
			t.Stop()
			return errFaultClosed
		}
	}
}

// openFor returns how long the windows open on the conn's link at offset
// now stay open, zero when none is.
func (c *faultConn) openFor(now time.Duration) time.Duration {
	link := c.link.Load()
	var d time.Duration
	for _, w := range c.windows {
		if w.Link == link && now >= w.After && now < w.After+w.For {
			d = max(d, w.After+w.For-now)
		}
	}
	return d
}
