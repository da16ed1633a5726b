package transport

import (
	"sync"
	"testing"
	"time"

	"aap/internal/codec"
)

// collector accumulates delivered frames for assertions.
type collector struct {
	mu     sync.Mutex
	frames []Frame
}

func (c *collector) onFrame(f Frame) {
	pl := append([]byte(nil), f.Payload...)
	c.mu.Lock()
	c.frames = append(c.frames, Frame{Kind: f.Kind, From: f.From, To: f.To, Seq: f.Seq, Payload: pl})
	c.mu.Unlock()
}

func (c *collector) snapshot() []Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Frame(nil), c.frames...)
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func testConfig(onFrame func(Frame)) Config {
	return Config{
		HeartbeatEvery: 5 * time.Millisecond,
		SuspectAfter:   50 * time.Millisecond,
		DeadAfter:      150 * time.Millisecond,
		RetryLimit:     20,
		Retry:          Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
		OnFrame:        onFrame,
	}
}

func TestPlaneDeliversBothWays(t *testing.T) {
	var ca, cb collector
	cfgA := testConfig(ca.onFrame)
	cfgA.ListenAddr = "127.0.0.1:0"
	a, err := Listen(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(testConfig(cb.onFrame))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// B serves endpoint 9 and routes endpoints 0,1 to A.
	if err := b.Dial(9, a.Addr(), []int32{9}, []int32{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitRoute(9, 0, 2*time.Second, nil); err != nil {
		t.Fatal(err)
	}

	const n = 50
	for i := 0; i < n; i++ {
		if err := b.Send(9, 0, KindData, codec.AppendUint32(nil, uint32(i))); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(0, 9, KindData, codec.AppendUint32(nil, uint32(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "all frames", func() bool {
		return len(ca.snapshot()) == n && len(cb.snapshot()) == n
	})
	for i, f := range ca.snapshot() {
		if got := codec.NewReader(f.Payload).Uint32(); got != uint32(i) {
			t.Fatalf("A frame %d: payload %d, delivery out of order", i, got)
		}
		if f.Kind != KindData || f.From != 9 || f.To != 0 {
			t.Fatalf("A frame %d: bad header %+v", i, f)
		}
	}
	for i, f := range cb.snapshot() {
		if got := codec.NewReader(f.Payload).Uint32(); got != uint32(100+i) {
			t.Fatalf("B frame %d: payload %d, delivery out of order", i, got)
		}
	}
	st := a.Stats()
	if st.WireBytesIn == 0 || st.WireBytesOut == 0 {
		t.Fatalf("wire accounting empty: %+v", st)
	}
}

// TestPlaneReplayAfterReconnect severs the conn mid-stream and asserts
// every frame still arrives exactly once, in order: the dialer redials
// with backoff, the Hello/HelloAck exchange trades resume points, the
// unacked suffix replays, and the receiver's dedup drops what it
// already saw.
func TestPlaneReplayAfterReconnect(t *testing.T) {
	var ca collector
	cfgA := testConfig(ca.onFrame)
	cfgA.ListenAddr = "127.0.0.1:0"
	a, err := Listen(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(testConfig(func(Frame) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Dial(3, a.Addr(), []int32{3}, []int32{0}); err != nil {
		t.Fatal(err)
	}

	const n = 200
	for i := 0; i < n; i++ {
		if err := b.Send(3, 0, KindData, codec.AppendUint32(nil, uint32(i))); err != nil {
			t.Fatal(err)
		}
		if i == 60 || i == 140 {
			// Sever the live conn; frames keep flowing into the queue
			// while the dialer re-establishes.
			b.mu.Lock()
			l := b.dialLinks[3]
			b.mu.Unlock()
			l.mu.Lock()
			c := l.conn
			l.mu.Unlock()
			if c != nil {
				c.Close()
			}
		}
	}
	waitFor(t, 5*time.Second, "all frames despite reconnects", func() bool {
		return len(ca.snapshot()) >= n
	})
	got := ca.snapshot()
	if len(got) != n {
		t.Fatalf("delivered %d frames, want exactly %d (dup leaked through dedup?)", len(got), n)
	}
	for i, f := range got {
		if v := codec.NewReader(f.Payload).Uint32(); v != uint32(i) {
			t.Fatalf("frame %d: payload %d — replay broke ordering", i, v)
		}
	}
}

// TestPlaneHeartbeatDeath kills the remote plane outright and asserts
// the survivor's detector — not any explicit signal — declares the peer
// dead and reports its served endpoints.
func TestPlaneHeartbeatDeath(t *testing.T) {
	deadCh := make(chan struct {
		link   int32
		served []int32
	}, 1)
	cfgA := testConfig(func(Frame) {})
	cfgA.ListenAddr = "127.0.0.1:0"
	cfgA.OnPeerDead = func(link int32, served []int32, err error) {
		deadCh <- struct {
			link   int32
			served []int32
		}{link, served}
	}
	a, err := Listen(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(testConfig(func(Frame) {}))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Dial(5, a.Addr(), []int32{5}, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitRoute(5, 0, 2*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	// Let a few heartbeats flow so the detector has started.
	waitFor(t, 2*time.Second, "heartbeat traffic", func() bool {
		a.mu.Lock()
		l := a.acceptLinks[5]
		a.mu.Unlock()
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.det.started
	})
	b.Close() // peer vanishes; no re-Hello will come

	select {
	case d := <-deadCh:
		if d.link != 5 {
			t.Fatalf("dead link %d, want 5", d.link)
		}
		if len(d.served) != 1 || d.served[0] != 5 {
			t.Fatalf("dead served %v, want [5]", d.served)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("detector never declared the silent peer dead")
	}
	if err := a.Send(0, 5, KindData, nil); err == nil {
		t.Fatal("Send to a dead endpoint succeeded")
	}
	if a.Stats().HeartbeatTimeouts == 0 {
		t.Fatal("death without a recorded heartbeat timeout")
	}
}

// TestFramingErrorFencesLink: a frame over the receiver's MaxFrame is not
// a broken conn but a peer that would write it again on every redial.
// The receiver declares the link dead, admit refuses the sender's
// same-incarnation re-Hello, and the sender's redials run out, so it
// declares the link dead too and stops writing.
func TestFramingErrorFencesLink(t *testing.T) {
	dead := func() (chan int32, func(int32, []int32, error)) {
		ch := make(chan int32, 1)
		return ch, func(link int32, _ []int32, _ error) { ch <- link }
	}
	aDead, onA := dead()
	cfgA := testConfig(func(Frame) {})
	cfgA.ListenAddr, cfgA.MaxFrame, cfgA.OnPeerDead = "127.0.0.1:0", 4<<10, onA
	a, err := Listen(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bDead, onB := dead()
	cfgB := testConfig(func(Frame) {})
	cfgB.RetryLimit, cfgB.OnPeerDead = 5, onB
	b, err := Listen(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Dial(11, a.Addr(), []int32{11}, []int32{0}); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitRoute(11, 0, 2*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	const oversize = 16 << 10
	if err := b.Send(11, 0, KindData, make([]byte, oversize)); err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]chan int32{"receiver": aDead, "sender": bDead} {
		select {
		case link := <-ch:
			if link != 11 {
				t.Fatalf("%s declared link %d dead, want 11", name, link)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the %s never declared the link dead: the oversize frame is being rewritten (%d bytes out)", name, b.Stats().WireBytesOut)
		}
	}
	out := b.Stats().WireBytesOut
	if out > 2*oversize {
		t.Fatalf("the sender wrote %d bytes for one %d-byte frame", out, oversize)
	}
	time.Sleep(50 * time.Millisecond)
	if got := b.Stats().WireBytesOut; got != out {
		t.Fatalf("the sender kept writing after the link died: %d bytes, then %d", out, got)
	}
	if err := b.Send(11, 0, KindData, nil); err == nil {
		t.Fatal("Send on the fenced link succeeded")
	}
}

// TestConcurrentSendsStayInOrder: senders sharing one link deliver every
// frame once and each sender's frames in its send order, although the
// receiving reader reads each data frame into the buffer of the last.
func TestConcurrentSendsStayInOrder(t *testing.T) {
	var cb collector
	cfg := testConfig(cb.onFrame)
	cfg.ListenAddr = "127.0.0.1:0"
	b, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cfg.ListenAddr, cfg.OnFrame = "", nil
	a, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Dial(1, b.Addr(), nil, []int32{0}); err != nil {
		t.Fatal(err)
	}
	const senders, n = 4, 300
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				pl := codec.AppendUint32(codec.AppendUint32(nil, uint32(s)), uint32(i))
				if err := a.Send(int32(s), 0, KindData, pl); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	waitFor(t, 5*time.Second, "every frame", func() bool { return len(cb.snapshot()) == senders*n })
	next := make([]uint32, senders)
	for _, f := range cb.snapshot() {
		r := codec.NewReader(f.Payload)
		s, i := r.Uint32(), r.Uint32()
		if s >= senders {
			t.Fatalf("frame from sender %d of %d", s, senders)
		}
		if i != next[s] {
			t.Fatalf("sender %d: frame %d arrived when %d was due", s, i, next[s])
		}
		next[s]++
	}
}
