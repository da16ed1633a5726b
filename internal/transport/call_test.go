package transport

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// callRig is a loopback plane for the mux tests: a hub that makes the
// calls (endpoint 0) and two serving planes dialed into it over their
// own links, endpoint 9 and endpoint 8. A server's handler only passes
// the request to the test and parks until its plane closes; the test
// decides when, in which order and whether to Reply.
type callRig struct {
	hub      *Plane
	srv9     *Plane
	srv8     *Plane
	in9, in8 chan Frame
}

func newCallRig(t *testing.T) *callRig {
	t.Helper()
	r := &callRig{in9: make(chan Frame, 64), in8: make(chan Frame, 64)}
	cfg := testConfig(func(Frame) {})
	cfg.ListenAddr = "127.0.0.1:0"
	var err error
	if r.hub, err = Listen(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.hub.Close() })
	serve := func(id int32, in chan Frame) *Plane {
		p, err := Listen(testConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		p.Serve(id, cap(in), cap(in), func(f Frame) ([]byte, error) {
			in <- f
			<-p.done
			return nil, errClosed
		})
		if err := p.Dial(id, r.hub.Addr(), []int32{id}, []int32{0}); err != nil {
			t.Fatal(err)
		}
		if err := r.hub.WaitRoute(id, 0, 2*time.Second, nil); err != nil {
			t.Fatal(err)
		}
		return p
	}
	r.srv9 = serve(9, r.in9)
	r.srv8 = serve(8, r.in8)
	return r
}

// parked reports how many calls the hub's pending table holds.
func (r *callRig) parked() int {
	r.hub.callMu.Lock()
	defer r.hub.callMu.Unlock()
	return len(r.hub.calls)
}

type callOutcome struct {
	reply string
	err   error
	took  time.Duration
}

// goCall issues hub → `to` on its own goroutine.
func (r *callRig) goCall(to int32, req string, timeout time.Duration, abort <-chan struct{}) <-chan callOutcome {
	out := make(chan callOutcome, 1)
	go func() {
		t0 := time.Now()
		resp, err := r.hub.Call(0, to, []byte(req), timeout, abort)
		out <- callOutcome{string(resp), err, time.Since(t0)}
	}()
	return out
}

func recvCall(t *testing.T, in chan Frame) Frame {
	t.Helper()
	select {
	case f := <-in:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the request")
		return Frame{}
	}
}

func wantOutcome(t *testing.T, what string, ch <-chan callOutcome) callOutcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: call never returned", what)
		return callOutcome{}
	}
}

// longCall is the bound of calls that must end for another reason: any
// test that waits it out has failed.
const longCall = time.Minute

func TestCallMux(t *testing.T) {
	t.Run("concurrent calls answered out of order", func(t *testing.T) {
		r := newCallRig(t)
		const n = 32
		outs := make([]<-chan callOutcome, n)
		for i := range outs {
			outs[i] = r.goCall(9, fmt.Sprintf("q%d", i), longCall, nil)
		}
		reqs := make([]Frame, n)
		for i := range reqs {
			reqs[i] = recvCall(t, r.in9)
		}
		for i := n - 1; i >= 0; i-- { // newest first
			f := reqs[i]
			if f.From != 0 || f.To != 9 || f.Call == 0 {
				t.Fatalf("request header %+v", f)
			}
			if err := r.srv9.Reply(f, []byte("re:"+string(f.Payload)), nil); err != nil {
				t.Fatal(err)
			}
		}
		for i, ch := range outs {
			o := wantOutcome(t, "call", ch)
			if want := fmt.Sprintf("re:q%d", i); o.err != nil || o.reply != want {
				t.Fatalf("call %d got %q, %v; want %q", i, o.reply, o.err, want)
			}
		}
		if n := r.parked(); n != 0 {
			t.Fatalf("%d calls still parked", n)
		}
	})

	t.Run("callee error", func(t *testing.T) {
		r := newCallRig(t)
		out := r.goCall(9, "q", longCall, nil)
		if err := r.srv9.Reply(recvCall(t, r.in9), []byte("ignored"), errors.New("no such vertex")); err != nil {
			t.Fatal(err)
		}
		o := wantOutcome(t, "call", out)
		var refused RemoteError
		if !errors.As(o.err, &refused) || refused.Error() != "no such vertex" || o.reply != "" {
			t.Fatalf("got %q, %v; want RemoteError(no such vertex)", o.reply, o.err)
		}
	})

	t.Run("deadline and abort", func(t *testing.T) {
		r := newCallRig(t)
		abort := make(chan struct{})
		timed := r.goCall(9, "slow", 40*time.Millisecond, nil)
		aborted := r.goCall(9, "slow", longCall, abort)
		recvCall(t, r.in9)
		recvCall(t, r.in9) // both arrived; neither is answered
		o := wantOutcome(t, "deadline", timed)
		var refused RemoteError
		if o.err == nil || errors.As(o.err, &refused) || o.took < 40*time.Millisecond {
			t.Fatalf("deadline: got %q, %v after %v", o.reply, o.err, o.took)
		}
		select {
		case o := <-aborted:
			t.Fatalf("the deadline of one call ended another: %+v", o)
		default:
		}
		close(abort)
		if o := wantOutcome(t, "abort", aborted); o.err == nil || !strings.Contains(o.err.Error(), "aborted") {
			t.Fatalf("abort: got %q, %v", o.reply, o.err)
		}
		if n := r.parked(); n != 0 {
			t.Fatalf("%d abandoned calls still parked", n)
		}
		if _, err := r.hub.Call(0, 77, nil, longCall, nil); err == nil {
			t.Fatal("call to an endpoint nobody serves succeeded")
		}
	})

	// The case every FIFO convention had to guard by hand: with replies
	// paired by arrival order instead of by id, the second call below
	// returns the first call's late answer.
	t.Run("late reply is dropped, the next call gets its own", func(t *testing.T) {
		r := newCallRig(t)
		first := r.goCall(9, "first", 30*time.Millisecond, nil)
		stale := recvCall(t, r.in9)
		if o := wantOutcome(t, "first", first); o.err == nil {
			t.Fatalf("unanswered call returned %q", o.reply)
		}
		second := r.goCall(9, "second", longCall, nil)
		fresh := recvCall(t, r.in9)
		// Same link, so the late answer reaches the hub first.
		if err := r.srv9.Reply(stale, []byte("answer to first"), nil); err != nil {
			t.Fatal(err)
		}
		if err := r.srv9.Reply(fresh, []byte("answer to second"), nil); err != nil {
			t.Fatal(err)
		}
		if o := wantOutcome(t, "second", second); o.err != nil || o.reply != "answer to second" {
			t.Fatalf("second call got %q, %v", o.reply, o.err)
		}
	})

	t.Run("dead peer fails its calls and only those", func(t *testing.T) {
		r := newCallRig(t)
		var doomed, spared []<-chan callOutcome
		for i := 0; i < 4; i++ {
			doomed = append(doomed, r.goCall(9, "q", longCall, nil))
			spared = append(spared, r.goCall(8, fmt.Sprintf("q%d", i), longCall, nil))
		}
		for i := 0; i < 4; i++ {
			recvCall(t, r.in9)
		}
		r.srv9.Close() // vanishes without a word: the hub's detector decides
		for _, ch := range doomed {
			if o := wantOutcome(t, "call on the dead link", ch); o.err == nil || !strings.Contains(o.err.Error(), "dead") {
				t.Fatalf("got %q, %v; want the link's death", o.reply, o.err)
			}
		}
		if n := r.parked(); n != 4 {
			t.Fatalf("%d calls parked after the death, want the 4 on the live link", n)
		}
		if _, err := r.hub.Call(0, 9, nil, longCall, nil); err == nil {
			t.Fatal("call to the dead peer succeeded")
		}
		for range spared {
			f := recvCall(t, r.in8)
			if err := r.srv8.Reply(f, f.Payload, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i, ch := range spared {
			if o := wantOutcome(t, "call on the live link", ch); o.err != nil || o.reply != fmt.Sprintf("q%d", i) {
				t.Fatalf("live call %d got %q, %v", i, o.reply, o.err)
			}
		}
	})

	t.Run("Close fails every call", func(t *testing.T) {
		r := newCallRig(t)
		var outs []<-chan callOutcome
		for i := 0; i < 3; i++ {
			outs = append(outs, r.goCall(9, "q", longCall, nil), r.goCall(8, "q", longCall, nil))
		}
		for i := 0; i < 3; i++ {
			recvCall(t, r.in9)
			recvCall(t, r.in8)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); r.hub.Close() }()
		for _, ch := range outs {
			if o := wantOutcome(t, "call at Close", ch); !errors.Is(o.err, errClosed) {
				t.Fatalf("got %q, %v; want %v", o.reply, o.err, errClosed)
			}
		}
		wg.Wait()
	})
}

// loopback is one plane dialed into itself, the engine's shape: the
// caller (endpoint 0) and the served endpoints share it.
func loopback(t *testing.T, serve func(p *Plane)) *Plane {
	t.Helper()
	cfg := testConfig(nil)
	cfg.ListenAddr = "127.0.0.1:0"
	// A reader parked on a full backlog sees no heartbeats; none of these
	// tests is about the detector.
	cfg.SuspectAfter, cfg.DeadAfter = 2*time.Second, 5*time.Second
	p, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	serve(p)
	if err := p.Dial(0, p.Addr(), nil, []int32{0, 7, 8}); err != nil {
		t.Fatal(err)
	}
	return p
}

// callAll issues n concurrent calls 0 → to with payloads "0".."n-1" and
// returns their outcomes in that order.
func callAll(t *testing.T, p *Plane, to int32, n int) []callOutcome {
	t.Helper()
	outs := make([]callOutcome, n)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			resp, err := p.Call(0, to, []byte(fmt.Sprint(i)), longCall, nil)
			outs[i] = callOutcome{string(resp), err, time.Since(t0)}
		}(i)
	}
	wg.Wait()
	return outs
}

func TestServe(t *testing.T) {
	t.Run("every call gets its own answer", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			var mu sync.Mutex
			var served []string // in the order handlers started
			p := loopback(t, func(p *Plane) {
				p.Serve(7, workers, 8, func(f Frame) ([]byte, error) {
					mu.Lock()
					served = append(served, string(f.Payload))
					mu.Unlock()
					return append([]byte("re:"), f.Payload...), nil
				})
			})
			for i, o := range callAll(t, p, 7, 64) {
				if want := fmt.Sprintf("re:%d", i); o.err != nil || o.reply != want {
					t.Fatalf("workers=%d: call %d got %q, %v; want %q", workers, i, o.reply, o.err, want)
				}
			}
			if len(served) != 64 {
				t.Fatalf("workers=%d: handler ran %d times for 64 calls", workers, len(served))
			}
		}
	})

	t.Run("one worker answers in arrival order", func(t *testing.T) {
		var served []string // one worker: no lock needed, and -race agrees
		p := loopback(t, func(p *Plane) {
			p.Serve(7, 1, 4, func(f Frame) ([]byte, error) {
				served = append(served, string(f.Payload))
				return nil, nil
			})
		})
		// One caller, so arrival order is send order.
		for i := 0; i < 32; i++ {
			if _, err := p.Call(0, 7, []byte(fmt.Sprint(i)), longCall, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i, got := range served {
			if got != fmt.Sprint(i) {
				t.Fatalf("served %v: position %d out of arrival order", served, i)
			}
		}
	})

	t.Run("handler error and panic fail that call only", func(t *testing.T) {
		p := loopback(t, func(p *Plane) {
			p.Serve(7, 2, 4, func(f Frame) ([]byte, error) {
				switch string(f.Payload) {
				case "refuse":
					return []byte("ignored"), errors.New("no such vertex")
				case "panic":
					var m map[string]int
					m["boom"] = 1
				}
				return []byte("ok"), nil
			})
		})
		var refused RemoteError
		resp, err := p.Call(0, 7, []byte("refuse"), longCall, nil)
		if !errors.As(err, &refused) || refused.Error() != "no such vertex" || resp != nil {
			t.Fatalf("handler error: got %q, %v; want RemoteError(no such vertex)", resp, err)
		}
		for i := 0; i < 3; i++ { // more panics than workers: the pool survives them
			_, err = p.Call(0, 7, []byte("panic"), longCall, nil)
			if !errors.As(err, &refused) || !strings.Contains(refused.Error(), "panicked") {
				t.Fatalf("handler panic: got %v; want a RemoteError naming the panic", err)
			}
		}
		if resp, err := p.Call(0, 7, []byte("fine"), longCall, nil); err != nil || string(resp) != "ok" {
			t.Fatalf("call after the panics got %q, %v", resp, err)
		}
	})

	// At the parent commit nothing answered a call for an endpoint without
	// a server: the caller slept out its timeout, a minute here.
	t.Run("unserved endpoint is refused at once", func(t *testing.T) {
		p := loopback(t, func(p *Plane) {
			p.Serve(7, 1, 1, func(Frame) ([]byte, error) { return nil, nil })
		})
		t0 := time.Now()
		_, err := p.Call(0, 8, []byte("anyone?"), longCall, nil)
		var refused RemoteError
		if !errors.As(err, &refused) || !strings.Contains(refused.Error(), "not served") {
			t.Fatalf("got %v; want a RemoteError saying endpoint 8 is not served", err)
		}
		if took := time.Since(t0); took > 5*time.Second {
			t.Fatalf("the refusal took %v", took)
		}
	})

	t.Run("full backlog blocks the reader until a worker frees up", func(t *testing.T) {
		gate := make(chan struct{})
		var started atomic.Int32
		p := loopback(t, func(p *Plane) {
			p.Serve(7, 1, 2, func(f Frame) ([]byte, error) {
				started.Add(1)
				<-gate
				return f.Payload, nil
			})
			p.Serve(8, 1, 1, func(f Frame) ([]byte, error) { return []byte("pong"), nil })
		})
		// 1 in the handler + 2 queued + 1 in the blocked reader's hands.
		outs := make(chan []callOutcome, 1)
		go func() { outs <- callAll(t, p, 7, 4) }()
		waitFor(t, 5*time.Second, "the first handler to start", func() bool { return started.Load() == 1 })
		waitFor(t, 5*time.Second, "the backlog to fill", func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return len(p.served[7].queue) == 2
		})
		// The reader is stuck behind endpoint 7's queue (it is the only
		// link), so even endpoint 8's call, sent later, is not read yet.
		ping := make(chan error, 1)
		go func() { _, err := p.Call(0, 8, nil, longCall, nil); ping <- err }()
		select {
		case err := <-ping:
			t.Fatalf("a call behind the blocked reader was answered: %v", err)
		case <-time.After(100 * time.Millisecond):
		}
		close(gate)
		for i, o := range <-outs {
			if o.err != nil || o.reply != fmt.Sprint(i) {
				t.Fatalf("call %d after the drain got %q, %v", i, o.reply, o.err)
			}
		}
		if err := <-ping; err != nil {
			t.Fatalf("the call behind the blocked reader: %v", err)
		}
	})

	t.Run("Drain answers the calls it took and refuses later ones", func(t *testing.T) {
		gate := make(chan struct{})
		var started atomic.Int32
		p := loopback(t, func(p *Plane) {
			p.Serve(7, 1, 1, func(f Frame) ([]byte, error) {
				started.Add(1)
				<-gate
				return f.Payload, nil
			})
		})
		taken := make(chan callOutcome, 1)
		go func() {
			resp, err := p.Call(0, 7, []byte("taken"), longCall, nil)
			taken <- callOutcome{reply: string(resp), err: err}
		}()
		waitFor(t, 5*time.Second, "the handler to start", func() bool { return started.Load() == 1 })
		drained := make(chan struct{})
		go func() { p.Drain(7); close(drained) }()
		waitFor(t, 5*time.Second, "Drain to stop serving endpoint 7", func() bool {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.served[7] == nil
		})
		var refused RemoteError
		if _, err := p.Call(0, 7, []byte("late"), longCall, nil); !errors.As(err, &refused) || !strings.Contains(refused.Error(), "not served") {
			t.Fatalf("a call after Drain began: %v; want a RemoteError saying endpoint 7 is not served", err)
		}
		select {
		case <-drained:
			t.Fatal("Drain returned while a call it took was still being handled")
		default:
		}
		close(gate)
		<-drained
		if o := <-taken; o.err != nil || o.reply != "taken" {
			t.Fatalf("the call Drain took got %q, %v", o.reply, o.err)
		}
	})

	t.Run("Close with handlers running", func(t *testing.T) {
		gate := make(chan struct{})
		var started atomic.Int32
		p := loopback(t, func(p *Plane) {
			p.Serve(7, 3, 3, func(Frame) ([]byte, error) {
				started.Add(1)
				<-gate
				return nil, nil
			})
		})
		outs := make(chan []callOutcome, 1)
		go func() { outs <- callAll(t, p, 7, 3) }()
		waitFor(t, 5*time.Second, "the handlers to start", func() bool { return started.Load() == 3 })
		closed := make(chan struct{})
		go func() { p.Close(); close(closed) }()
		for _, o := range <-outs { // parked callers fail while the handlers still run
			if !errors.Is(o.err, errClosed) {
				t.Fatalf("parked caller got %q, %v; want %v", o.reply, o.err, errClosed)
			}
		}
		select {
		case <-closed:
			t.Fatal("Close returned while handlers were still running")
		case <-time.After(50 * time.Millisecond):
		}
		close(gate)
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close never returned after the handlers did")
		}
	})
}

// TestDialRoutesBeforeReading: a plane that dials out and serves an
// endpoint can be sent a call the instant its handshake completes, and
// Serve's handler answers it through the route back to the caller. So
// Dial must register the link's routes before the link's reader starts:
// a reader started first delivers the frame while the route is missing,
// the Reply fails with "no route", and the caller waits out its timeout.
// Here the hub sends the moment it can route to the server, so its frame
// is pipelined behind the HelloAck, and the caller's endpoint comes last
// in a route list long enough that registering it takes milliseconds;
// on delivery the frame checks that the route back exists, as the Reply
// would.
func TestDialRoutesBeforeReading(t *testing.T) {
	route := make([]int32, 1<<17)
	for k := range route {
		route[k] = int32(100 + k)
	}
	caller := route[len(route)-1]
	hubCfg := testConfig(nil)
	hubCfg.ListenAddr = "127.0.0.1:0"
	hub, err := Listen(hubCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	var srv *Plane
	seen := make(chan string, 1)
	srv, err = Listen(testConfig(func(f Frame) {
		msg := "routed"
		if !srv.mu.TryLock() {
			msg = "delivered while Dial held the routing table"
		} else {
			if srv.routes[f.From] == nil {
				msg = "delivered before the route back was registered"
			}
			srv.mu.Unlock()
		}
		select {
		case seen <- msg:
		default:
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
			if hub.Send(caller, 9, KindData, nil) == nil {
				return
			}
		}
	}()
	if err := srv.Dial(1, hub.Addr(), []int32{9}, route); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-seen:
		if msg != "routed" {
			t.Fatalf("the hub's frame was %s", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the hub's frame never arrived")
	}
}
