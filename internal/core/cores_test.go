package core

import (
	"slices"
	"testing"
	"time"
)

// stepTask is a task that logs each turn under its name and reports
// itself due again for its first `again` turns. A non-nil hold blocks
// its first turn until closed.
type stepTask struct {
	name, run string
	again     int
	hold      chan struct{}
	log       *[]string
}

func (f *stepTask) turn() bool {
	if f.hold != nil {
		<-f.hold
		f.hold = nil
	}
	*f.log = append(*f.log, f.name)
	f.again--
	return f.again >= 0
}

func (f *stepTask) owner() any { return f.run }

// TestCoresRunsTakeTurns pins the order a Session's executors take
// ready tasks in, on one executor: the oldest task of a run other than
// the one taken last, else the oldest; a task due again goes back
// behind the ready ones. Once none is left the executor exits and holds
// on to no run.
func TestCoresRunsTakeTurns(t *testing.T) {
	c := &cores{procs: 1}
	var log []string
	hold := make(chan struct{})
	c.submit(&stepTask{name: "a1", run: "a", hold: hold, log: &log})
	for _, f := range []*stepTask{
		{name: "a2", run: "a"}, {name: "a3", run: "a", again: 1}, {name: "b1", run: "b"}, {name: "b2", run: "b"},
	} {
		f.log = &log
		c.submit(f)
	}
	close(hold)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		n, last := c.executors, c.last
		c.mu.Unlock()
		if n == 0 {
			if last != nil {
				t.Fatalf("the idle executors still hold run %v", last)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d executors still running after 5 s; turns so far %v", n, log)
		}
	}
	if want := []string{"a1", "b1", "a2", "b2", "a3", "a3"}; !slices.Equal(log, want) {
		t.Fatalf("turns %v, want %v", log, want)
	}
}
