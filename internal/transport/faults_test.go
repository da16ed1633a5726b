package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"aap/internal/codec"
)

// TestPartitionHealNoDeath is the injector's core guarantee: a
// partition window longer than SuspectAfter but shorter than DeadAfter
// trips suspicion, blackholes traffic, and then heals with every frame
// delivered and OnPeerDead never fired — the transport-level half of
// the "healed partition means zero restarts" acceptance criterion.
func TestPartitionHealNoDeath(t *testing.T) {
	var ca, cb collector
	var deadA, deadB atomic.Int64
	cfgA := testConfig(ca.onFrame)
	cfgA.ListenAddr = "127.0.0.1:0"
	cfgA.DeadAfter = 2 * time.Second
	cfgA.OnPeerDead = func(int32, []int32, error) { deadA.Add(1) }
	cfgA.Partitions = []Window{{Link: 9, After: 60 * time.Millisecond, For: 150 * time.Millisecond}}
	a, err := Listen(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfgB := testConfig(cb.onFrame)
	cfgB.DeadAfter = 2 * time.Second
	cfgB.OnPeerDead = func(int32, []int32, error) { deadB.Add(1) }
	b, err := Listen(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Dial(9, a.Addr(), []int32{9}, []int32{0}); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitRoute(9, 0, 2*time.Second, nil); err != nil {
		t.Fatal(err)
	}

	// Send across the window: some frames before, some while it is
	// open. All of them must arrive, in order, once it heals.
	const n = 40
	for i := 0; i < n; i++ {
		if err := b.Send(9, 0, KindData, codec.AppendUint32(nil, uint32(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, 5*time.Second, "all frames after heal", func() bool {
		return len(ca.snapshot()) == n
	})
	for i, f := range ca.snapshot() {
		if got := codec.NewReader(f.Payload).Uint32(); got != uint32(i) {
			t.Fatalf("frame %d: payload %d — partition reordered or dropped", i, got)
		}
	}
	if deadA.Load() != 0 || deadB.Load() != 0 {
		t.Fatalf("healed partition killed a peer: OnPeerDead A=%d B=%d", deadA.Load(), deadB.Load())
	}
	if st := a.Stats(); st.HeartbeatTimeouts == 0 {
		t.Fatalf("window never tripped suspicion: %+v", st)
	}
}

// TestPartitionOutlastingDeadAfterKills proves the injector can do the
// opposite too: a window past the death threshold must end in a real
// OnPeerDead verdict (this is what the supervisor reacts to).
func TestPartitionOutlastingDeadAfterKills(t *testing.T) {
	var ca, cb collector
	deadCh := make(chan int32, 1)
	cfgA := testConfig(ca.onFrame)
	cfgA.ListenAddr = "127.0.0.1:0"
	cfgA.OnPeerDead = func(id int32, _ []int32, _ error) {
		select {
		case deadCh <- id:
		default:
		}
	}
	cfgA.Partitions = []Window{{Link: 9, After: 30 * time.Millisecond, For: 2 * time.Second}}
	a, err := Listen(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfgB := testConfig(cb.onFrame)
	cfgB.DeadAfter = 10 * time.Second // only A may reach the verdict
	cfgB.RetryLimit = 1
	b, err := Listen(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Dial(9, a.Addr(), []int32{9}, []int32{0}); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-deadCh:
		if id != 9 {
			t.Fatalf("OnPeerDead for link %d, want 9", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partition past DeadAfter never produced OnPeerDead")
	}
}

// TestIncarnationRejoinAndFencing exercises the handshake fencing: a
// higher incarnation supersedes the old link, which WaitRoute sees as
// the route moving to that incarnation; a stale incarnation is refused
// at the link layer.
func TestIncarnationRejoinAndFencing(t *testing.T) {
	var ca, c1, c2 collector
	var deadA atomic.Int64
	cfgA := testConfig(ca.onFrame)
	cfgA.ListenAddr = "127.0.0.1:0"
	cfgA.OnPeerDead = func(int32, []int32, error) { deadA.Add(1) }
	a, err := Listen(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Incarnation 1 joins and speaks.
	cfg1 := testConfig(c1.onFrame)
	cfg1.Incarnation = 1
	b1, err := Listen(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b1.Dial(9, a.Addr(), []int32{9}, []int32{0}); err != nil {
		t.Fatal(err)
	}
	if err := b1.Send(9, 0, KindData, codec.AppendUint32(nil, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "incarnation 1 frame", func() bool { return len(ca.snapshot()) == 1 })
	b1.Close() // the process "dies"

	// Incarnation 2 dials the same link id: A must retire the old link
	// (without a death report — the supersede is quiet) and route the
	// endpoint to the new one.
	cfg2 := testConfig(c2.onFrame)
	cfg2.Incarnation = 2
	b2, err := Listen(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if err := b2.Dial(9, a.Addr(), []int32{9}, []int32{0}); err != nil {
		t.Fatal(err)
	}
	if err := a.WaitRoute(9, 2, 2*time.Second, nil); err != nil {
		t.Fatalf("higher incarnation never took the route: %v", err)
	}
	if err := a.WaitRoute(9, 3, 50*time.Millisecond, nil); err == nil {
		t.Fatal("WaitRoute for incarnation 3 returned with only incarnation 2 routed")
	}
	abort := make(chan struct{})
	close(abort)
	if err := a.WaitRoute(9, 3, time.Minute, abort); err == nil {
		t.Fatal("WaitRoute ignored its abort")
	}
	if err := b2.Send(9, 0, KindData, codec.AppendUint32(nil, 2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "incarnation 2 frame", func() bool { return len(ca.snapshot()) == 2 })

	// A zombie of incarnation 1 tries to come back: the link layer must
	// refuse its handshake outright.
	cfg3 := testConfig(func(Frame) {})
	cfg3.Incarnation = 1
	cfg3.RetryLimit = 2
	b3, err := Listen(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	defer b3.Close()
	if err := b3.Dial(9, a.Addr(), []int32{9}, []int32{0}); err == nil {
		t.Fatal("stale incarnation completed a handshake; fencing failed")
	}
	if got := len(ca.snapshot()); got != 2 {
		t.Fatalf("frames after fencing: got %d want 2", got)
	}
	if deadA.Load() != 0 {
		t.Fatalf("quiet supersede reported a death: OnPeerDead fired %d times", deadA.Load())
	}
}
