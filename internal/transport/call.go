package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// The call mux: the plane's one request/reply facility. Call stamps a
// request frame with a fresh id and parks the caller under that id;
// Serve registers the handler that answers calls addressed to an
// endpoint, and Reply echoes the id under its answer; the reader that
// receives the reply wakes exactly that caller. Pairing is by id alone,
// so any number of calls may be in flight between the same two endpoints,
// answered in any order, and a reply whose caller has given up finds no
// entry and is dropped — it can never be mistaken for the answer to a
// later call.

// RemoteError is the error Call returns when the serving side answered
// Reply(req, nil, err): the round trip worked and the callee refused.
// Every other Call error means no answer came.
type RemoteError string

func (e RemoteError) Error() string { return string(e) }

var errClosed = errors.New("transport: plane closed")

// pendingCall is one parked caller. Whoever deletes it from Plane.calls
// owns the single send on done.
type pendingCall struct {
	link *link // the request went out on it; its death fails the call
	done chan callResult
}

type callResult struct {
	payload []byte
	err     error
}

// Call sends req from endpoint `from` to endpoint `to` and blocks until
// the serving side answers it with Reply, returning the reply payload.
// It returns an error instead — and forgets the call, so a late reply is
// dropped — when timeout elapses (0 = no bound), abort is closed (nil =
// never), the plane closes, `to` has no route, or the link routing `to`
// is declared dead or superseded by a respawned peer.
func (p *Plane) Call(from, to int32, req []byte, timeout time.Duration, abort <-chan struct{}) ([]byte, error) {
	l, err := p.route(to)
	if err != nil {
		return nil, err
	}
	c := &pendingCall{link: l, done: make(chan callResult, 1)}
	p.callMu.Lock()
	p.lastCall++
	id := p.lastCall
	p.calls[id] = c
	p.callMu.Unlock()
	defer func() { // forget the call however it ends; resolve may have already
		p.callMu.Lock()
		delete(p.calls, id)
		p.callMu.Unlock()
	}()

	if err := l.enqueue(Frame{Kind: KindCall, From: from, To: to, Call: id, Payload: req}); err != nil {
		return nil, err
	}
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case res := <-c.done:
		return res.payload, res.err
	case <-expired:
		return nil, fmt.Errorf("transport: call %d→%d unanswered after %v", from, to, timeout)
	case <-abort:
		return nil, fmt.Errorf("transport: call %d→%d aborted", from, to)
	case <-p.done:
		return nil, errClosed
	}
}

// Reply answers req, a KindCall frame: with payload, or, when err is
// non-nil, with err's text, which the caller's Call returns as a
// RemoteError. Serve's workers call it with what the handler returned.
func (p *Plane) Reply(req Frame, payload []byte, err error) error {
	f := Frame{Kind: KindReply, From: req.To, To: req.From, Call: req.Call, Payload: payload}
	if err != nil {
		f.Failed = true
		f.Payload = []byte(err.Error())
	}
	return p.send(f)
}

// resolve hands a received reply to the caller parked under its id.
func (p *Plane) resolve(f Frame) {
	p.callMu.Lock()
	c := p.calls[f.Call]
	delete(p.calls, f.Call)
	p.callMu.Unlock()
	if c == nil {
		return // the caller timed out or aborted: nobody is waiting
	}
	if f.Failed {
		c.done <- callResult{err: RemoteError(f.Payload)}
	} else {
		c.done <- callResult{payload: f.Payload}
	}
}

// failCalls fails every call whose request went out on l, and only those.
func (p *Plane) failCalls(l *link, err error) {
	p.callMu.Lock()
	for id, c := range p.calls {
		if c.link == l {
			delete(p.calls, id)
			c.done <- callResult{err: err}
		}
	}
	p.callMu.Unlock()
}

// servedEndpoint is one endpoint this plane serves: its queue of calls, and
// the calls taken off the wire for it and not yet answered.
type servedEndpoint struct {
	queue chan Frame
	calls sync.WaitGroup
}

// Serve makes this plane answer the calls addressed to endpoint: the
// reader that receives one queues it, `workers` goroutines take calls off
// the queue, run handler and Reply with its payload or its error. One
// worker answers in arrival order. A reader that finds `backlog` calls
// already queued blocks until a worker frees a place, which pushes back
// on the peer through its conn. Close stops the workers, after the
// handlers they are running return. Register every endpoint before the
// first Dial: a call for an endpoint the plane does not serve is refused
// at once.
func (p *Plane) Serve(endpoint int32, workers, backlog int, handler func(Frame) ([]byte, error)) {
	ep := &servedEndpoint{queue: make(chan Frame, backlog)}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.served[endpoint] = ep
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for {
				select {
				case f := <-ep.queue:
					resp, err := answer(handler, f)
					// A send failure means the caller's link died or the
					// plane is closing: the call has failed on its side.
					_ = p.Reply(f, resp, err)
					ep.calls.Done()
				case <-p.done:
					return
				}
			}
		}()
	}
}

// Drain stops serving endpoint and returns once the calls it already
// took have been answered and every peer has acknowledged what was sent
// to it. A call for the endpoint that arrives from now on is refused as
// for an endpoint the plane does not serve. The wait for acknowledgements
// ends early for a link that is down, and is bounded by DeadAfter, the
// silence after which the peer would be declared dead anyway. Drain
// before Close, so that answered calls reach their callers.
func (p *Plane) Drain(endpoint int32) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	ep := p.served[endpoint]
	delete(p.served, endpoint)
	links := p.linksLocked()
	p.mu.Unlock()
	if ep != nil {
		ep.calls.Wait()
	}
	deadline := time.Now().Add(p.cfg.DeadAfter)
	for _, l := range links {
		// Poll with short sleeps, as WaitRoute does: Drain runs once, at
		// shutdown. Acks ride the peer's heartbeats.
		for time.Now().Before(deadline) {
			l.mu.Lock()
			settled := l.dead || l.conn == nil || len(l.out) == 0
			l.mu.Unlock()
			if settled {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// answer runs the handler, turning a panic into the call's error so one
// bad request cannot take the endpoint (or the process) down.
func answer(handler func(Frame) ([]byte, error), f Frame) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("transport: handler of endpoint %d panicked: %v", f.To, r)
		}
	}()
	return handler(f)
}

// dispatch hands a received call to the endpoint's queue, on the reader
// goroutine. Replying from here is safe — enqueue never blocks.
func (p *Plane) dispatch(f Frame) {
	p.mu.Lock()
	ep := p.served[f.To]
	if ep != nil {
		ep.calls.Add(1) // under p.mu, so Drain's Wait never races it
	}
	p.mu.Unlock()
	if ep == nil {
		_ = p.Reply(f, nil, fmt.Errorf("transport: endpoint %d is not served by this plane", f.To))
		return
	}
	select {
	case ep.queue <- f:
	case <-p.done:
		ep.calls.Done()
	}
}
