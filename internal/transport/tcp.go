package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aap/internal/codec"
)

// Config configures a Plane.
type Config struct {
	// ListenAddr is the TCP address to accept peers on; "" makes a
	// dial-only plane (a remote worker host). Use "127.0.0.1:0" for an
	// ephemeral loopback port.
	ListenAddr string
	// MaxFrame bounds one frame; DefaultMaxFrame when zero.
	MaxFrame int
	// HeartbeatEvery is the per-link beacon period (default 25ms); it
	// also paces the failure monitor and ack piggybacking.
	HeartbeatEvery time.Duration
	// SuspectAfter / DeadAfter are the detector's absolute silence
	// floors (defaults 8× and 24× HeartbeatEvery).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// RetryLimit bounds reconnect attempts per outage on the dialing
	// side of a link (default 8); Retry shapes their backoff schedule.
	RetryLimit int
	Retry      Backoff
	// OnFrame receives every delivered Data frame, in per-link send
	// order, each frame at most once; nil drops them. Call frames go to
	// the endpoint's Serve handler and Reply frames to the parked Call.
	// It runs on a reader goroutine, so while it blocks the link's conn
	// is not drained (nor its heartbeats seen). The frame's Payload is
	// valid only during the call: the reader reads the next data frame
	// into the same buffer.
	OnFrame func(Frame)
	// OnPeerDead fires once when a link is declared dead: heartbeat
	// silence past DeadAfter, or reconnect attempts exhausted. served
	// lists the endpoint ids the dead peer was serving. Calls parked on
	// the link have already failed when it runs.
	OnPeerDead func(linkID int32, served []int32, err error)
	// Incarnation stamps every Hello this plane sends (default 1). A
	// respawned process dials in with a higher incarnation; the acceptor
	// fences anything lower (see admit), so frames and acks from a dead
	// incarnation can never leak into the run its replacement joined.
	Incarnation uint64
	// Partitions blackhole links for fixed windows of the plane's
	// lifetime (see Window); empty leaves every conn ungated.
	Partitions []Window
}

func (c Config) withDefaults() Config {
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 25 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 8 * c.HeartbeatEvery
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 24 * c.HeartbeatEvery
	}
	if c.RetryLimit <= 0 {
		c.RetryLimit = 8
	}
	if c.Incarnation == 0 {
		c.Incarnation = 1
	}
	return c
}

// Stats is the plane's cumulative wire accounting.
type Stats struct {
	WireBytesOut      int64 // frame bytes written, headers included
	WireBytesIn       int64 // frame bytes read, headers included
	Retries           int64 // reconnect attempts after a link outage
	HeartbeatTimeouts int64 // detector Alive→Suspect transitions
}

// Plane is one process's attachment to the TCP message plane: a
// listener (optional), a set of links to peers, and a routing table
// from endpoint id to link. Frames sent to an endpoint id are written
// to its link with a per-link sequence number; the receiving plane
// deduplicates and dispatches them in order: Data to OnFrame, Call to
// the served endpoint's queue, Reply to the parked caller.
type Plane struct {
	cfg   Config
	ln    net.Listener
	start time.Time // partition windows are offsets from here

	mu          sync.Mutex
	dialLinks   map[int32]*link
	acceptLinks map[int32]*link
	routes      map[int32]*link
	served      map[int32]*servedEndpoint // the endpoints this plane answers (Serve)
	closed      bool
	// tombTimeouts preserves the detector Timeouts of links superseded
	// by a higher incarnation, so Stats stays cumulative across rejoins.
	tombTimeouts int64

	// The call mux (call.go): every Call in flight, by the id its request
	// frame carries and its reply echoes.
	callMu   sync.Mutex
	calls    map[uint64]*pendingCall
	lastCall uint64

	done chan struct{}
	wg   sync.WaitGroup

	wireOut atomic.Int64
	wireIn  atomic.Int64
	retries atomic.Int64
}

// link is one reliable duplex stream to a peer. The sequenced outbound
// queue `out` holds every frame not yet cumulatively acked: frames
// [0, nextSend) are written-but-unacked (replayed after a reconnect),
// [nextSend, len) are pending. Acks prune the prefix.
type link struct {
	p        *Plane
	id       int32
	inc      uint64  // peer incarnation (accept side) / ours (dial side)
	dialAddr string  // non-empty on the side that dials (and re-dials)
	served   []int32 // endpoint ids the peer serves (routes to this link)
	serve    []int32 // endpoint ids this side serves (re-announced on Hello)

	mu         sync.Mutex
	conn       net.Conn
	connGen    uint64
	out        []Frame
	nextSend   int
	seq        uint64 // last sequence number assigned
	baseSeq    uint64 // seq of out[0] minus 1 (acked prefix dropped)
	lastRecv   uint64 // inbound dedup high-water mark
	unacked    int    // inbound frames since the last ack we sent
	hbPending  bool
	ackPending bool
	det        *Detector
	dead       bool
	deadErr    error
	redialing  bool

	notify chan struct{}
	wbuf   []byte // writer's encode scratch
}

// Listen creates a plane. With a ListenAddr it accepts peers
// immediately; links are added with Dial (outbound) or by inbound
// Hello handshakes.
func Listen(cfg Config) (*Plane, error) {
	cfg = cfg.withDefaults()
	p := &Plane{
		cfg:         cfg,
		start:       time.Now(),
		dialLinks:   make(map[int32]*link),
		acceptLinks: make(map[int32]*link),
		routes:      make(map[int32]*link),
		served:      make(map[int32]*servedEndpoint),
		calls:       make(map[uint64]*pendingCall),
		done:        make(chan struct{}),
	}
	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, err
		}
		p.ln = ln
		p.wg.Add(1)
		go p.acceptLoop()
	}
	return p, nil
}

// Addr returns the listen address, "" for a dial-only plane.
func (p *Plane) Addr() string {
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// Stats returns the cumulative wire accounting across all links.
func (p *Plane) Stats() Stats {
	s := Stats{
		WireBytesOut: p.wireOut.Load(),
		WireBytesIn:  p.wireIn.Load(),
		Retries:      p.retries.Load(),
	}
	p.mu.Lock()
	s.HeartbeatTimeouts += p.tombTimeouts
	for _, l := range p.dialLinks {
		l.mu.Lock()
		s.HeartbeatTimeouts += l.det.Timeouts()
		l.mu.Unlock()
	}
	for _, l := range p.acceptLinks {
		l.mu.Lock()
		s.HeartbeatTimeouts += l.det.Timeouts()
		l.mu.Unlock()
	}
	p.mu.Unlock()
	return s
}

// Dial opens link id to addr. serve lists the endpoint ids THIS side
// hosts over the link (the peer routes them back to us); route lists
// the peer's endpoint ids (registered into our routing table). The
// initial connect runs the same bounded-backoff schedule reconnects
// use, so a worker process can dial a coordinator that is still
// binding its listener.
func (p *Plane) Dial(id int32, addr string, serve, route []int32) error {
	l := &link{
		p:        p,
		id:       id,
		inc:      p.cfg.Incarnation,
		dialAddr: addr,
		serve:    serve,
		det:      NewDetector(p.cfg.SuspectAfter, p.cfg.DeadAfter),
		notify:   make(chan struct{}, 1),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errClosed
	}
	if _, ok := p.dialLinks[id]; ok {
		p.mu.Unlock()
		return fmt.Errorf("transport: link %d already dialed", id)
	}
	p.dialLinks[id] = l
	p.mu.Unlock()

	conn, br, lastRecv, err := l.dialAndShake(serve)
	if err != nil {
		return err
	}
	// Routes before the reader: the peer may call an endpoint we serve
	// the instant the handshake completes, and the handler's Reply
	// travels on the route back to the caller.
	p.mu.Lock()
	for _, r := range route {
		p.routes[r] = l
	}
	p.mu.Unlock()

	l.mu.Lock()
	l.attachLocked(conn, br, lastRecv)
	l.mu.Unlock()

	p.wg.Add(2)
	go l.writer()
	go l.ticker()
	return nil
}

// dialAndShake runs the bounded connect/handshake schedule and returns
// the peer's resume point (the highest seq it has delivered from us)
// plus the handshake's buffered reader, which may already hold frames
// the peer pipelined behind its HelloAck.
func (l *link) dialAndShake(serve []int32) (net.Conn, *bufio.Reader, uint64, error) {
	bo := l.p.cfg.Retry
	bo.Seed ^= splitmix64(uint64(l.id) + 1)
	var lastErr error
	for attempt := 0; attempt < l.p.cfg.RetryLimit; attempt++ {
		if attempt > 0 {
			l.p.retries.Add(1)
			select {
			case <-time.After(bo.Delay(attempt - 1)):
			case <-l.p.done:
				return nil, nil, 0, fmt.Errorf("transport: plane closed during dial")
			}
		}
		conn, err := net.DialTimeout("tcp", l.dialAddr, time.Second)
		if err != nil {
			lastErr = err
			continue
		}
		if len(l.p.cfg.Partitions) > 0 {
			conn = l.p.gate(conn, l.id)
		}
		br, resume, err := l.shake(conn, serve)
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		return conn, br, resume, nil
	}
	return nil, nil, 0, fmt.Errorf("transport: link %d to %s failed after %d attempts: %w",
		l.id, l.dialAddr, l.p.cfg.RetryLimit, lastErr)
}

// shake performs the dialer half of the handshake on a fresh conn:
// Hello{link, our inbound high-water, our incarnation, served ids} out,
// HelloAck{link, peer's inbound high-water, incarnation echo} back. The
// incarnation fences process generations: a respawned host dials with a
// higher one and the acceptor retires the dead generation's link (see
// admit). The returned reader MUST be handed
// to the conn's frame reader: the peer starts writing frames the
// instant it sends the HelloAck, so the buffered read that captured the
// ack may already hold the first of them — constructing a fresh buffer
// on the conn would silently drop those bytes (and with them a seq the
// cumulative-ack protocol would then confirm without ever delivering).
func (l *link) shake(conn net.Conn, serve []int32) (*bufio.Reader, uint64, error) {
	if tc, ok := unwrapConn(conn).(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	l.mu.Lock()
	hello := codec.AppendInt32(nil, l.id)
	hello = codec.AppendUint64(hello, l.lastRecv)
	hello = codec.AppendUint64(hello, l.inc)
	hello = codec.AppendInt32s(hello, serve)
	l.mu.Unlock()
	buf := AppendFrame(nil, Frame{Kind: KindHello, Payload: hello})
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write(buf); err != nil {
		return nil, 0, err
	}
	l.p.wireOut.Add(int64(len(buf)))
	br := bufio.NewReaderSize(conn, 1<<16)
	f, err := readFrame(br, l.p.cfg.MaxFrame, &l.p.wireIn)
	if err != nil {
		return nil, 0, err
	}
	if f.Kind != KindHelloAck {
		return nil, 0, fmt.Errorf("transport: link %d: want HelloAck, got kind %d", l.id, f.Kind)
	}
	r := codec.NewReader(f.Payload)
	if got := r.Int32(); got != l.id {
		return nil, 0, fmt.Errorf("transport: link %d: HelloAck for link %d", l.id, got)
	}
	resume := r.Uint64()
	inc := r.Uint64()
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if inc != l.inc {
		return nil, 0, fmt.Errorf("transport: link %d: HelloAck for incarnation %d, we are %d", l.id, inc, l.inc)
	}
	conn.SetDeadline(time.Time{})
	return br, resume, nil
}

// attachLocked installs a live conn: prunes frames the peer confirmed,
// rewinds nextSend so everything unconfirmed replays in order, rearms
// the detector, and wakes the writer. br is the handshake's buffered
// reader (see shake for why it must carry over). Caller holds l.mu.
func (l *link) attachLocked(conn net.Conn, br *bufio.Reader, peerSeen uint64) {
	l.pruneLocked(peerSeen)
	l.nextSend = 0 // replay everything the peer has not confirmed
	l.conn = conn
	l.connGen++
	l.det.Reset(time.Now())
	gen := l.connGen
	l.p.wg.Add(1)
	go l.reader(conn, br, gen)
	l.wake()
}

// pruneLocked drops the acked prefix of the outbound queue.
func (l *link) pruneLocked(upto uint64) {
	k := 0
	for k < len(l.out) && l.out[k].Seq <= upto {
		k++
	}
	if k > 0 {
		rest := len(l.out) - k
		copy(l.out, l.out[k:])
		for i := rest; i < len(l.out); i++ {
			l.out[i] = Frame{}
		}
		l.out = l.out[:rest]
		l.nextSend -= k
		if l.nextSend < 0 {
			l.nextSend = 0
		}
		l.baseSeq = upto
	}
}

// Send enqueues a sequenced frame for endpoint `to` and returns
// immediately; the link's writer goroutine drains the queue. An error
// means the frame will never be delivered: no route is registered for
// `to`, or its link is dead (OnPeerDead has fired or is firing).
func (p *Plane) Send(from, to int32, kind Kind, payload []byte) error {
	return p.send(Frame{Kind: kind, From: from, To: to, Payload: payload})
}

func (p *Plane) send(f Frame) error {
	l, err := p.route(f.To)
	if err != nil {
		return err
	}
	return l.enqueue(f)
}

// route returns the link frames for endpoint `to` travel on.
func (p *Plane) route(to int32) (*link, error) {
	p.mu.Lock()
	l := p.routes[to]
	p.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("transport: no route to endpoint %d", to)
	}
	return l, nil
}

// wake nudges the writer; one pending nudge covers any amount of work.
func (l *link) wake() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// enqueue gives f the link's next sequence number and queues it for the
// writer.
func (l *link) enqueue(f Frame) error {
	l.mu.Lock()
	if l.dead {
		err := l.deadErr
		l.mu.Unlock()
		return fmt.Errorf("transport: link %d dead: %w", l.id, err)
	}
	l.seq++
	f.Seq = l.seq
	l.out = append(l.out, f)
	l.mu.Unlock()
	l.wake()
	return nil
}

// WaitRoute blocks until endpoint id is routed over a link whose
// incarnation is at least inc (0 means any): the peer's on an accepted
// link, ours — echoed by the peer — on a dialed one. A respawned host
// rejoins under a higher incarnation, so waiting for it is waiting for
// the route to move to its link. It errors on timeout, when the plane
// closes, or when abort closes (nil never does).
func (p *Plane) WaitRoute(id int32, inc uint64, timeout time.Duration, abort <-chan struct{}) error {
	deadline := time.Now().Add(timeout)
	// Poll with short sleeps — WaitRoute runs once per remote worker at
	// startup and once per respawn, never on the hot path. A link's inc
	// never changes, so reading it needs no link lock.
	for {
		p.mu.Lock()
		l := p.routes[id]
		closed := p.closed
		p.mu.Unlock()
		if l != nil && l.inc >= inc {
			return nil
		}
		if closed {
			return errClosed
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: no peer (incarnation >= %d) serving endpoint %d after %v", inc, id, timeout)
		}
		select {
		case <-abort:
			return fmt.Errorf("transport: wait for endpoint %d aborted", id)
		case <-time.After(time.Millisecond):
		}
	}
}

// linksLocked lists every link, dialed and accepted; p.mu is held.
func (p *Plane) linksLocked() []*link {
	links := make([]*link, 0, len(p.dialLinks)+len(p.acceptLinks))
	for _, l := range p.dialLinks {
		links = append(links, l)
	}
	for _, l := range p.acceptLinks {
		links = append(links, l)
	}
	return links
}

// Close tears the plane down: listener, conns, goroutines, Serve's
// workers (it returns once the handlers they are running have). Every
// Call in flight returns an error; OnPeerDead does not fire.
func (p *Plane) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	links := p.linksLocked()
	p.mu.Unlock()
	if p.ln != nil {
		p.ln.Close()
	}
	for _, l := range links {
		l.mu.Lock()
		if l.conn != nil {
			l.conn.Close()
		}
		l.mu.Unlock()
		l.wake()
	}
	p.wg.Wait()
	return nil
}

// acceptLoop admits inbound peers: every conn must open with a Hello
// naming its link id; a re-Hello for a known link is a reconnect and
// resumes its sequence state.
func (p *Plane) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.done:
				return
			default:
			}
			// Transient accept errors (EMFILE etc.): keep serving.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		p.wg.Add(1)
		go p.admit(conn)
	}
}

// admit runs the acceptor half of the handshake. The Hello's
// incarnation decides the link's fate: equal incarnations are ordinary
// reconnects resuming sequence state; a HIGHER incarnation is a
// respawned peer — the old generation's link is retired wholesale
// (quietly: its death was already reported, and resurrecting its queue
// would replay frames addressed to a dead process) and a fresh link
// with fresh sequence space takes its place and its routes (what
// WaitRoute waits for); a LOWER incarnation (or a dead same-incarnation
// peer) is fenced off — a partitioned zombie must not slip frames into
// the run its replacement has joined.
func (p *Plane) admit(conn net.Conn) {
	defer p.wg.Done()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	var fc *faultConn
	if len(p.cfg.Partitions) > 0 {
		fc = p.gate(conn, linkUnknown)
		conn = fc
	}
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	// br carries over to the attached reader: the dialer is free to
	// pipeline frames behind its Hello, and the read that captured the
	// Hello may have buffered them already (see shake).
	br := bufio.NewReaderSize(conn, 1<<16)
	f, err := readFrame(br, p.cfg.MaxFrame, &p.wireIn)
	if err != nil || f.Kind != KindHello {
		conn.Close()
		return
	}
	r := codec.NewReader(f.Payload)
	id := r.Int32()
	peerSeen := r.Uint64()
	inc := r.Uint64()
	served := r.Int32s()
	if r.Err() != nil {
		conn.Close()
		return
	}
	if fc != nil {
		fc.setLink(id)
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	l := p.acceptLinks[id]
	fresh := false
	if l != nil {
		l.mu.Lock() // p.mu -> l.mu matches Stats' lock order
		switch {
		case inc < l.inc || (inc == l.inc && l.dead):
			// Stale generation, or a late reconnect from a peer already
			// declared dead: fenced out of the run.
			l.mu.Unlock()
			p.mu.Unlock()
			conn.Close()
			return
		case inc > l.inc:
			p.tombTimeouts += l.det.Timeouts()
			l.mu.Unlock()
			l.retire(fmt.Errorf("transport: link %d superseded by incarnation %d", id, inc))
			l = nil
		default:
			l.mu.Unlock()
		}
	}
	if l == nil {
		fresh = true
		l = &link{
			p:      p,
			id:     id,
			inc:    inc,
			served: served,
			det:    NewDetector(p.cfg.SuspectAfter, p.cfg.DeadAfter),
			notify: make(chan struct{}, 1),
		}
		p.acceptLinks[id] = l
	}
	for _, s := range served {
		p.routes[s] = l
	}
	p.mu.Unlock()

	l.mu.Lock()
	if l.dead {
		// The peer was declared dead between the map update and here; a
		// late reconnect cannot rejoin this run.
		l.mu.Unlock()
		conn.Close()
		return
	}
	if l.conn != nil {
		l.conn.Close() // replaced by the reconnect
	}
	ack := codec.AppendInt32(nil, id)
	ack = codec.AppendUint64(ack, l.lastRecv)
	ack = codec.AppendUint64(ack, inc)
	buf := AppendFrame(nil, Frame{Kind: KindHelloAck, Payload: ack})
	if _, err := conn.Write(buf); err != nil {
		l.mu.Unlock()
		conn.Close()
		return
	}
	p.wireOut.Add(int64(len(buf)))
	conn.SetDeadline(time.Time{})
	l.attachLocked(conn, br, peerSeen)
	l.mu.Unlock()

	if fresh {
		p.wg.Add(2)
		go l.writer()
		go l.ticker()
	}
}

// writer drains the link's work: pending acks and heartbeats first
// (unsequenced, never replayed), then the sequenced queue in order.
// Frames are encoded under the link lock and written outside it, so a
// conn blocked on TCP backpressure never blocks Send.
func (l *link) writer() {
	defer l.p.wg.Done()
	for {
		select {
		case <-l.notify:
		case <-l.p.done:
			return
		}
		for {
			l.mu.Lock()
			if l.dead {
				l.mu.Unlock()
				return
			}
			conn := l.conn
			gen := l.connGen
			if conn == nil {
				l.mu.Unlock()
				break
			}
			l.wbuf = l.wbuf[:0]
			if l.ackPending {
				l.ackPending = false
				l.unacked = 0
				var pl [8]byte
				binary.LittleEndian.PutUint64(pl[:], l.lastRecv)
				l.wbuf = AppendFrame(l.wbuf, Frame{Kind: KindAck, Payload: pl[:]})
			}
			if l.hbPending {
				l.hbPending = false
				l.wbuf = AppendFrame(l.wbuf, Frame{Kind: KindHeartbeat})
			}
			for l.nextSend < len(l.out) && len(l.wbuf) < 1<<16 {
				l.wbuf = AppendFrame(l.wbuf, l.out[l.nextSend])
				l.nextSend++
			}
			buf := l.wbuf
			l.mu.Unlock()
			if len(buf) == 0 {
				break
			}
			if _, err := conn.Write(buf); err != nil {
				l.connBroken(gen, err)
				break
			}
			l.p.wireOut.Add(int64(len(buf)))
		}
	}
}

// ticker paces heartbeats (with a piggybacked cumulative ack) and runs
// the failure monitor.
func (l *link) ticker() {
	defer l.p.wg.Done()
	t := time.NewTicker(l.p.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-l.p.done:
			return
		}
		l.mu.Lock()
		if l.dead {
			l.mu.Unlock()
			return
		}
		l.hbPending = true
		if l.lastRecv > 0 {
			l.ackPending = true
		}
		st := l.det.Check(time.Now())
		l.mu.Unlock()
		l.wake()
		if st == Dead {
			l.declareDead(fmt.Errorf("transport: link %d: no traffic for %v (heartbeat timeout)",
				l.id, l.p.cfg.DeadAfter))
			return
		}
	}
}

// reader drains one conn: observes the detector, deduplicates sequenced
// frames, prunes on acks, and dispatches in order — replies to their
// parked calls, calls to the endpoint that serves them, data to OnFrame.
func (l *link) reader(conn net.Conn, br *bufio.Reader, gen uint64) {
	defer l.p.wg.Done()
	var body []byte // data, ack and heartbeat bodies, reused frame to frame
	for {
		f, err := readFrameInto(br, l.p.cfg.MaxFrame, &l.p.wireIn, &body)
		if errors.Is(err, errFraming) {
			// The peer would write the same frame again after a redial:
			// fence the link instead, so admit refuses its re-Hello.
			l.declareDead(fmt.Errorf("transport: link %d: %w", l.id, err))
			return
		}
		if err != nil {
			l.connBroken(gen, err)
			return
		}
		l.mu.Lock()
		if l.connGen != gen {
			l.mu.Unlock()
			return // a reconnect superseded this conn
		}
		l.det.Observe(time.Now())
		deliver := true
		if f.Seq != 0 {
			if f.Seq <= l.lastRecv {
				deliver = false // duplicate from a replay: idempotent drop
			} else {
				l.lastRecv = f.Seq
				l.unacked++
				if l.unacked >= 32 {
					l.ackPending = true
					l.wake()
				}
			}
		}
		if f.Kind == KindAck {
			r := codec.NewReader(f.Payload)
			if ackTo := r.Uint64(); r.Err() == nil {
				l.pruneLocked(ackTo)
			}
		}
		l.mu.Unlock()
		if !deliver {
			continue
		}
		switch f.Kind {
		case KindReply:
			l.p.resolve(f)
		case KindCall:
			l.p.dispatch(f)
		case KindData:
			if l.p.cfg.OnFrame != nil {
				l.p.cfg.OnFrame(f)
			}
		default:
			// Link-layer traffic: the Observe above was its whole job.
		}
	}
}

// connBroken handles a conn failure observed by the reader or writer of
// generation gen: the dialing side starts the bounded-backoff redial
// loop; the accepting side detaches and waits for a re-Hello, bounded
// by the detector's death clock.
func (l *link) connBroken(gen uint64, err error) {
	select {
	case <-l.p.done:
		return
	default:
	}
	l.mu.Lock()
	if l.connGen != gen || l.dead {
		l.mu.Unlock()
		return
	}
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	redial := l.dialAddr != "" && !l.redialing
	if redial {
		l.redialing = true
	}
	l.mu.Unlock()
	if !redial {
		return
	}
	l.p.wg.Add(1)
	go func() {
		defer l.p.wg.Done()
		conn, br, resume, derr := l.dialAndShake(l.serve)
		if derr != nil {
			l.declareDead(fmt.Errorf("transport: link %d reconnect failed: %w", l.id, derr))
			return
		}
		l.mu.Lock()
		l.redialing = false
		if l.dead || l.p.isClosed() {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.attachLocked(conn, br, resume)
		l.mu.Unlock()
	}()
}

func (p *Plane) isClosed() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// declareDead retires the link and reports the peer exactly once.
func (l *link) declareDead(err error) {
	if l.retire(err) && l.p.cfg.OnPeerDead != nil && !l.p.isClosed() {
		l.p.cfg.OnPeerDead(l.id, l.served, err)
	}
}

// retire marks the link dead, drops its conn and queue, and fails the
// calls parked on it; false when it was dead already.
func (l *link) retire(err error) bool {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return false
	}
	l.dead = true
	l.deadErr = err
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.out = nil
	l.nextSend = 0
	l.mu.Unlock()
	l.wake()
	l.p.failCalls(l, fmt.Errorf("transport: link %d dead: %w", l.id, err))
	return true
}

// errFraming marks a frame that breaks the framing: a length out of
// bounds, or a body that does not parse.
var errFraming = errors.New("frame breaks the framing")

// readFrame reads one length-prefixed frame from br, charging wireIn. It
// is the one frame decoder: every byte a peer sends reaches it first. A
// length prefix below the header or above maxFrame is refused before
// anything is allocated for the body; the Payload aliases the body.
// Framing errors wrap errFraming; a failed read returns its own error.
func readFrame(br *bufio.Reader, maxFrame int, wireIn *atomic.Int64) (Frame, error) {
	return readFrameInto(br, maxFrame, wireIn, nil)
}

// readFrameInto is readFrame reading the body of a data, ack or
// heartbeat frame into *scratch, grown as needed, when scratch is not
// nil: no handler keeps those, so the Payload may alias a buffer the
// next read overwrites. Calls, replies and handshakes get a body of
// their own.
func readFrameInto(br *bufio.Reader, maxFrame int, wireIn *atomic.Int64, scratch *[]byte) (Frame, error) {
	hdr, err := br.Peek(4) // the length prefix, read in place
	if err == io.EOF && len(hdr) > 0 {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return Frame{}, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < frameHeader || n > maxFrame {
		return Frame{}, fmt.Errorf("transport: %w: length %d outside [%d, %d]", errFraming, n, frameHeader, maxFrame)
	}
	br.Discard(4)
	var body []byte
	if k, err := br.Peek(1); err == nil && scratch != nil && (Kind(k[0]) == KindData || Kind(k[0]) == KindAck || Kind(k[0]) == KindHeartbeat) {
		if cap(*scratch) < n {
			*scratch = make([]byte, n)
		}
		body = (*scratch)[:n]
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(br, body); err != nil {
		return Frame{}, err
	}
	wireIn.Add(int64(4 + n))
	f, err := parseBody(body)
	if err != nil {
		return Frame{}, fmt.Errorf("%w: %w", errFraming, err)
	}
	return f, nil
}
