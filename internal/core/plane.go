package core

import (
	"errors"
	"fmt"
	"time"

	"aap/internal/codec"
	"aap/internal/transport"
)

// TransportOptions selects and tunes the message plane of a run.
//
// The default (nil, or TCP false with no remote workers) is the in-proc
// plane: batches move by pointer handoff between goroutines and the
// coordinator is shared-memory atomics. With TCP true the engine runs
// its cluster wiring for real on a loopback listener: every batch is
// codec-encoded into a length-prefixed frame, shipped over TCP, and
// decoded on the far side — communication accounting measures real
// serialized bytes — and the coordinator tokens (round / sent /
// consumed / active, snapshot announce & seal) travel the same plane as
// synchronous calls (transport.Plane.Call). RemoteWorkers additionally
// moves the named workers' Programs into separate processes (see
// ServeWorker): the parent keeps the worker loop and drives the Program
// through the same call path, so a kill -9 of the host process is
// detected by heartbeat silence and recovered through the ordinary
// rollback path.
type TransportOptions struct {
	// TCP routes worker batches and coordinator tokens over the TCP
	// plane (loopback by default) instead of in-proc channels.
	TCP bool
	// ListenAddr is the plane's listen address; "127.0.0.1:0" if empty.
	ListenAddr string
	// RemoteWorkers lists worker ids whose Programs are hosted by
	// external processes that dial in with ServeWorker.
	RemoteWorkers []int
	// RemoteWait bounds how long Run waits for every remote host to
	// complete its handshake; 10s if zero.
	RemoteWait time.Duration
	// OnListen, when set, is called with the plane's bound address once
	// the listener is up and before Run waits for remote hosts — the
	// hook a parent uses to spawn worker processes against a :0 port.
	// It must not block.
	OnListen func(addr string)
	// Heartbeat / failure-detector / retry tuning, passed through to
	// transport.Config (zeros pick that package's defaults).
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	DeadAfter      time.Duration
	RetryLimit     int
	RetryBase      time.Duration
	RetryMax       time.Duration
	// Supervisor, when set, owns the remote hosts' lifecycle: when the
	// failure detector declares a host dead, the recovery goroutine asks
	// it (with the run quiesced) to respawn the process under its
	// restart policy. A granted respawn is waited out via the
	// incarnation handshake and the worker rejoins; a refusal (budget
	// exhausted) fails the worker back to a local Program.
	// internal/supervise.Supervisor implements this.
	Supervisor RespawnPolicy
	// RejoinWait bounds how long recovery waits for a respawned host's
	// higher-incarnation handshake before spending the next unit of
	// restart budget; 10s if zero.
	RejoinWait time.Duration
	// Incarnation is this process's link incarnation, carried in every
	// Hello so a supervisor-respawned host fences its dead predecessor's
	// frames. Meaningful for ServeWorker children; zero means 1.
	Incarnation uint64
	// LinkFaults, when non-nil, injects the deterministic link-fault
	// schedule (partition windows, loss-as-RTO, delay) below the plane,
	// composing with Options.Faults' delivery faults above it.
	LinkFaults *transport.LinkFaults
}

// RespawnPolicy is the supervision hook recovery consults for each dead
// remote host: it returns the incarnation a replacement process is
// being launched as, or ok=false when the restart budget is exhausted
// and the worker must fail back locally. Called on the recovery
// goroutine with the run quiesced; it may block (backoff, process
// launch).
type RespawnPolicy interface {
	Respawn(worker int) (incarnation uint64, ok bool)
}

func (t *TransportOptions) enabled() bool {
	return t != nil && (t.TCP || len(t.RemoteWorkers) > 0)
}

// config is the link tuning both ends of the plane (the engine's
// listener, a ServeWorker host) take from the options.
func (t *TransportOptions) config(seed int64) transport.Config {
	return transport.Config{
		Incarnation:    t.Incarnation,
		HeartbeatEvery: t.HeartbeatEvery,
		SuspectAfter:   t.SuspectAfter,
		DeadAfter:      t.DeadAfter,
		RetryLimit:     t.RetryLimit,
		Retry:          transport.Backoff{Base: t.RetryBase, Max: t.RetryMax, Seed: uint64(seed)},
	}
}

// Endpoint id scheme on the plane: workers are 0..M-1, the coordinator
// is M, and the remote host serving worker k's Program is M+1+k.
func (e *engine[T]) coordEndpoint() int32 { return int32(e.p.M) }

func hostEndpoint(m, worker int) int32 { return int32(m + 1 + worker) }

// msgPlane is the pluggable delivery path for designated-message
// batches. Both implementations sit below the flusher — fault injection
// (drop/dup/delay) happens above this boundary, so one fault model
// covers both planes — and above the inbox: a delivered batch ends with
// inbox.put plus the undelivered decrement, whichever plane carried it.
type msgPlane[T any] interface {
	// deliver ships msgs from worker `from` to worker `to` after the
	// extra delay, stamped with the sender's snapshot epoch. The plane
	// owns msgs from this call on.
	deliver(from, to int, epoch int32, msgs []VMsg[T], extra time.Duration)
}

// inproc is the fast path, as msgPlane and as coordLink: batches move by
// pointer handoff, coordinator tokens are shared-memory calls.
type inproc[T any] struct{ e *engine[T] }

func (p *inproc[T]) deliver(from, to int, epoch int32, msgs []VMsg[T], extra time.Duration) {
	e := p.e
	e.after(extra, func() {
		e.workers[to].inbox.put(batch[T]{from: int32(from), epoch: epoch, msgs: msgs})
		e.undelivered.Add(-1)
	})
}

// wirePlane is the run's attachment to the TCP transport
// (Options.Transport): the listener, the coordinator endpoint served on
// it and the proxies of remote-hosted Programs. With Transport.TCP it is
// also the run's msgPlane and coordLink, so every batch and every
// coordinator token is a real frame.
type wirePlane[T any] struct {
	e       *engine[T]
	tp      *transport.Plane
	remotes []*remoteProg[T] // by worker id; nil for a locally hosted Program
}

// deliver codec-encodes the batch into a KindData frame — [epoch int32]
// then the batch (wire.go) — and ships it through the transport; onFrame
// decodes it back into the destination inbox. Sender-side slices return
// to the pool right after encoding; the receiver decodes into fresh
// pooled slices.
func (wp *wirePlane[T]) deliver(from, to int, epoch int32, msgs []VMsg[T], extra time.Duration) {
	e := wp.e
	e.after(extra, func() {
		payload := e.job.appendMsgs(codec.AppendInt32(nil, epoch), msgs)
		n := int64(len(msgs))
		e.pool.put(msgs)
		if err := wp.tp.Send(int32(from), int32(to), transport.KindData, payload); err != nil {
			e.lost(from, n, epoch) // plane closed or link declared dead
		}
	})
}

// onFrame is the plane's delivery callback for batches, running on
// transport reader goroutines: decode, inbox put.
func (wp *wirePlane[T]) onFrame(f transport.Frame) {
	e := wp.e
	to := int(f.To)
	if to < 0 || to >= e.p.M {
		return
	}
	r := codec.NewReader(f.Payload)
	epoch := r.Int32()
	msgs, err := e.job.readMsgs(r, e.pool.get())
	if err != nil {
		e.pool.put(msgs)
		e.fail(fmt.Errorf("core: %s: corrupt batch frame %d→%d: %w", e.job.Name, f.From, f.To, err))
		return
	}
	e.workers[to].inbox.put(batch[T]{from: f.From, epoch: epoch, msgs: msgs})
	e.undelivered.Add(-1)
}

// onPeerRejoin fires when a higher-incarnation Hello superseded a
// link: the respawned host for some worker has completed its handshake.
// Recovery's awaitRejoin polls the recorded incarnation.
func (wp *wirePlane[T]) onPeerRejoin(linkID int32, served []int32, inc uint64) {
	for _, s := range served {
		if k := int(s) - (wp.e.p.M + 1); k >= 0 && k < wp.e.p.M && wp.remotes[k] != nil {
			wp.e.recov.noteRejoin(k, inc)
		}
	}
}

// onPeerDead is the heartbeat verdict: a host process went silent past
// the death threshold (or exhausted its reconnect budget). The plane
// has already failed any call parked on the link; mark the proxy dead
// and trigger the ordinary quiesce → rollback-to-sealed-epoch → replay
// recovery for the worker it served.
func (wp *wirePlane[T]) onPeerDead(linkID int32, served []int32, err error) {
	for _, s := range served {
		if k := int(s) - (wp.e.p.M + 1); k >= 0 && k < wp.e.p.M && wp.remotes[k] != nil {
			wp.remotes[k].markDead()
			wp.e.recov.request(k)
		}
	}
}

// startWirePlane wires the TCP transport into the engine: the remote
// Program proxies (a run with any has a recovery plane, which the peer
// callbacks lean on), the loopback listener, the coordinator endpoint,
// the self-link that carries the parent's own batches and coordinator
// tokens as real frames, and the wait for each remote host to dial in.
// nil when the run stays in-proc; on an error everything it started is
// stopped.
func startWirePlane[T any](e *engine[T]) (*wirePlane[T], error) {
	topts := e.opts.Transport
	if !topts.enabled() {
		return nil, nil
	}
	if e.job.EncodeVal == nil || e.job.DecodeVal == nil {
		return nil, fmt.Errorf("core: %s: the TCP plane requires Job.EncodeVal/DecodeVal", e.job.Name)
	}
	wp := &wirePlane[T]{e: e, remotes: make([]*remoteProg[T], e.p.M)}
	for _, k := range topts.RemoteWorkers {
		if k < 0 || k >= e.p.M {
			return nil, fmt.Errorf("core: %s: remote worker %d out of range [0,%d)", e.job.Name, k, e.p.M)
		}
		wp.remotes[k] = &remoteProg[T]{wp: wp, w: k, host: hostEndpoint(e.p.M, k)}
		e.workers[k].prog = wp.remotes[k]
	}
	cfg := topts.config(e.opts.Seed)
	cfg.OnFrame, cfg.OnPeerDead, cfg.OnPeerRejoin = wp.onFrame, wp.onPeerDead, wp.onPeerRejoin
	cfg.Faults = topts.LinkFaults
	if cfg.ListenAddr = topts.ListenAddr; cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	tp, err := transport.Listen(cfg)
	if err != nil {
		return nil, err
	}
	wp.tp = tp
	if topts.TCP {
		// One goroutine serves the coordinator: applying tokens in arrival
		// order is what keeps sent-before-consumed sound. A worker and its
		// flusher each have at most one token in flight, so the backlog
		// never fills.
		tp.Serve(e.coordEndpoint(), 1, 4*e.p.M+16, wp.serveCoord)
	}
	if topts.OnListen != nil {
		topts.OnListen(tp.Addr())
	}
	if topts.TCP {
		// Self-link 0: every parent endpoint (workers + coordinator)
		// routes through one loopback conn, so parent-side batches and
		// tokens are serialized, framed, and byte-accounted for real.
		route := make([]int32, 0, e.p.M+1)
		for i := 0; i <= e.p.M; i++ {
			route = append(route, int32(i))
		}
		if err := tp.Dial(0, tp.Addr(), nil, route); err != nil {
			wp.stop()
			return nil, err
		}
		e.plane, e.clink = wp, wp
	}
	wait := topts.RemoteWait
	if wait <= 0 {
		wait = 10 * time.Second
	}
	for _, k := range topts.RemoteWorkers {
		if err := tp.WaitRoute(hostEndpoint(e.p.M, k), wait); err != nil {
			wp.stop() // the hosts that did dial in are told to exit
			return nil, fmt.Errorf("core: %s: remote host for worker %d never dialed in: %w", e.job.Name, k, err)
		}
	}
	return wp, nil
}

// stop runs after the result is assembled (remote value collection needs
// the links): tell live hosts to exit, then tear the transport down.
func (wp *wirePlane[T]) stop() {
	if wp == nil {
		return
	}
	wp.e.closeDone() // also covers early-error exits before the run started
	for _, rp := range wp.remotes {
		if rp != nil && rp.alive() {
			rp.shutdown()
		}
	}
	wp.tp.Close()
}

// report fills the transport section of RunStats.
func (wp *wirePlane[T]) report(s *RunStats) {
	if wp == nil {
		return
	}
	ws := wp.tp.Stats()
	s.WireBytesOut = ws.WireBytesOut
	s.WireBytesIn = ws.WireBytesIn
	s.Retries = ws.Retries
	s.HeartbeatTimeouts = ws.HeartbeatTimeouts
}

// coordLink is how workers (and their flushers) reach the coordinator
// and the checkpoint store's announce/seal accounting. The in-proc
// implementation is direct shared-memory calls; the wire implementation
// makes each one a transport call to the coordinator endpoint. Every
// operation is a synchronous request/reply — fire-and-forget tokens
// would be unsound:
// a consumed token racing ahead of its sent counterpart could show the
// coordinator sent == consumed during a transient and terminate a run
// with messages still in flight. Awaiting the reply preserves the same
// happens-before edges the shared-memory atomics give (a worker's sent
// is visible before any later token it emits).
type coordLink interface {
	roundDone(id int) int32
	addSent(id int, n int64)
	addConsumed(id int, n int64)
	setActive(id int, active bool)
	view(self int) (rmin, rmax int32)
	announce(id int) bool
	announcedEpoch(id int) int32
	batchSent(id int, stamp int32)
	batchDrained(id int, stamp int32)
}

func (l *inproc[T]) roundDone(id int) int32        { return l.e.coord.roundDone(id) }
func (l *inproc[T]) addSent(id int, n int64)       { l.e.coord.addSent(n) }
func (l *inproc[T]) addConsumed(id int, n int64)   { l.e.coord.addConsumed(n) }
func (l *inproc[T]) setActive(id int, active bool) { l.e.coord.setActive(id, active) }
func (l *inproc[T]) view(self int) (int32, int32)  { return l.e.coord.view(self) }
func (l *inproc[T]) announcedEpoch(id int) int32   { return l.e.ckpt.AnnouncedEpoch() }
func (l *inproc[T]) batchSent(id int, stamp int32) { l.e.ckpt.BatchSent(stamp) }
func (l *inproc[T]) batchDrained(id int, stamp int32) {
	l.e.ckpt.BatchDrained(stamp)
}
func (l *inproc[T]) announce(id int) bool {
	_, ok := l.e.ckpt.Announce()
	return ok
}

// Coordinator ops. A token is one transport.Plane.Call from the worker's
// endpoint to the coordinator endpoint: request [op int32][args...],
// reply [results...]. The plane pairs reply with request by call id, so
// a worker and its flusher share the endpoint without taking turns, and
// a reply that outlives its caller is dropped there.
const (
	opRoundDone int32 = iota + 1
	opAddSent
	opAddConsumed
	opSetActive
	opView
	opAnnounce
	opAnnouncedEpoch
	opBatchSent
	opBatchDrained
)

// The coordinator-over-the-plane path: wirePlane as the run's coordLink.

// call sends one token and blocks for its reply. A token the coordinator
// refused fails the run. After the run ends (that way or any other) it
// returns an empty reader, whose zero results callers treat as inert —
// every caller is on its way out through e.done.
func (wp *wirePlane[T]) call(id int, req []byte) *codec.Reader {
	resp, err := wp.tp.Call(int32(id), wp.e.coordEndpoint(), req, 0, wp.e.done)
	var refused transport.RemoteError
	if errors.As(err, &refused) {
		wp.e.fail(fmt.Errorf("core: %s: coordinator token from worker %d: %w", wp.e.job.Name, id, err))
	}
	return codec.NewReader(resp)
}

func req(op int32) []byte { return codec.AppendInt32(nil, op) }

func (wp *wirePlane[T]) roundDone(id int) int32 { return wp.call(id, req(opRoundDone)).Int32() }

func (wp *wirePlane[T]) addSent(id int, n int64) { wp.call(id, codec.AppendInt64(req(opAddSent), n)) }

func (wp *wirePlane[T]) addConsumed(id int, n int64) {
	wp.call(id, codec.AppendInt64(req(opAddConsumed), n))
}

func (wp *wirePlane[T]) setActive(id int, active bool) {
	wp.call(id, codec.AppendBool(codec.AppendInt32(req(opSetActive), int32(id)), active))
}

func (wp *wirePlane[T]) view(self int) (int32, int32) {
	r := wp.call(self, codec.AppendInt32(req(opView), int32(self)))
	return r.Int32(), r.Int32()
}

func (wp *wirePlane[T]) announce(id int) bool { return wp.call(id, req(opAnnounce)).Bool() }

func (wp *wirePlane[T]) announcedEpoch(id int) int32 {
	return wp.call(id, req(opAnnouncedEpoch)).Int32()
}

func (wp *wirePlane[T]) batchSent(id int, stamp int32) {
	wp.call(id, codec.AppendInt32(req(opBatchSent), stamp))
}

func (wp *wirePlane[T]) batchDrained(id int, stamp int32) {
	wp.call(id, codec.AppendInt32(req(opBatchDrained), stamp))
}

// serveCoord is the coordinator endpoint's handler: it applies one token
// to the shared coordinator/checkpoint state and returns its results. It
// is the wire-protocol stand-in for the paper's master. An error (or a
// panic) here is the call's error, with which the caller fails the run.
func (wp *wirePlane[T]) serveCoord(f transport.Frame) ([]byte, error) {
	e := wp.e
	r := codec.NewReader(f.Payload)
	op := r.Int32()
	var resp []byte
	switch op {
	case opRoundDone:
		resp = codec.AppendInt32(resp, e.coord.roundDone(int(f.From)))
	case opAddSent:
		e.coord.addSent(r.Int64())
	case opAddConsumed:
		e.coord.addConsumed(r.Int64())
	case opSetActive:
		id := r.Int32()
		e.coord.setActive(int(id), r.Bool())
	case opView:
		rmin, rmax := e.coord.view(int(r.Int32()))
		resp = codec.AppendInt32(resp, rmin)
		resp = codec.AppendInt32(resp, rmax)
	case opAnnounce:
		ok := false
		if e.ckpt != nil {
			_, ok = e.ckpt.Announce()
		}
		resp = codec.AppendBool(resp, ok)
	case opAnnouncedEpoch:
		ep := int32(0)
		if e.ckpt != nil {
			ep = e.ckpt.AnnouncedEpoch()
		}
		resp = codec.AppendInt32(resp, ep)
	case opBatchSent:
		if e.ckpt != nil {
			e.ckpt.BatchSent(r.Int32())
		}
	case opBatchDrained:
		if e.ckpt != nil {
			e.ckpt.BatchDrained(r.Int32())
		}
	default:
		return nil, fmt.Errorf("unknown op %d", op)
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("corrupt request, op %d: %w", op, r.Err())
	}
	return resp, nil
}
