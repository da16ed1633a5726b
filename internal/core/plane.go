package core

import (
	"fmt"
	"time"

	"aap/internal/codec"
	"aap/internal/transport"
)

// TransportOptions selects and tunes the message plane of a run.
//
// The default (nil, or TCP false with no remote workers) is the in-proc
// plane: batches move by pointer handoff between goroutines. With TCP
// true the engine runs its cluster wiring for real on a loopback
// listener: every batch is codec-encoded into a length-prefixed frame,
// shipped over TCP, and decoded on the far side — communication
// accounting measures real serialized bytes. RemoteWorkers additionally
// moves the named workers' Programs into separate processes (see
// ServeWorker): the parent keeps the worker loop and drives the Program
// through synchronous calls (transport.Plane.Call), so a kill -9 of the
// host process is detected by heartbeat silence and recovered through
// the ordinary rollback path. The coordinator is shared-memory atomics
// in every configuration, because worker loops never leave the engine's
// process: what crosses the wire is batches and remote evals.
type TransportOptions struct {
	// TCP routes worker batches over the TCP plane (loopback by default)
	// instead of in-proc channels.
	TCP bool
	// ListenAddr is the plane's listen address; "127.0.0.1:0" if empty.
	ListenAddr string
	// RemoteWorkers lists worker ids whose Programs are hosted by
	// external processes that dial in with ServeWorker.
	RemoteWorkers []int
	// OnListen, when set, is called with the plane's bound address once
	// the listener is up and before Run waits for remote hosts — the
	// hook a parent uses to spawn worker processes against a :0 port.
	// It must not block.
	OnListen func(addr string)
	// Heartbeat / failure-detector tuning, passed through to
	// transport.Config (zeros pick that package's defaults).
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	DeadAfter      time.Duration
	// Supervisor, when set, owns the remote hosts' lifecycle: when the
	// failure detector declares a host dead, the recovery event asks it
	// (with the run quiesced) to respawn the process under its restart
	// policy. A granted respawn is waited out via the
	// incarnation handshake and the worker rejoins; a refusal (budget
	// exhausted) fails the worker back to a local Program.
	// internal/supervise.Supervisor implements this.
	Supervisor RespawnPolicy
	// Incarnation is this process's link incarnation, carried in every
	// Hello so a supervisor-respawned host fences its dead predecessor's
	// frames. Meaningful for ServeWorker children; zero means 1.
	Incarnation uint64
}

// RespawnPolicy is the supervision hook recovery consults for each dead
// remote host: it returns the incarnation a replacement process is
// being launched as, or ok=false when the restart budget is exhausted
// and the worker must fail back locally. Called by the recovery event
// with the run quiesced; it may block (backoff, process launch).
type RespawnPolicy interface {
	Respawn(worker int) (incarnation uint64, ok bool)
}

// remoteWait bounds how long Run waits for every remote host to complete
// its handshake; rejoinWait how long recovery waits for a respawned
// host's higher-incarnation handshake before spending the next unit of
// restart budget.
const (
	remoteWait = 10 * time.Second
	rejoinWait = 10 * time.Second
)

func (t *TransportOptions) enabled() bool {
	return t != nil && (t.TCP || len(t.RemoteWorkers) > 0)
}

// config is the link tuning both ends of the plane (the engine's
// listener, a ServeWorker host) take from the options.
func (t *TransportOptions) config() transport.Config {
	return transport.Config{
		Incarnation:    t.Incarnation,
		HeartbeatEvery: t.HeartbeatEvery,
		SuspectAfter:   t.SuspectAfter,
		DeadAfter:      t.DeadAfter,
	}
}

// Endpoint id scheme on the plane: workers are 0..M-1 and the remote
// host serving worker k's Program is M+1+k. Nothing serves M.
func hostEndpoint(m, worker int) int32 { return int32(m + 1 + worker) }

// msgPlane is the pluggable delivery path for designated-message
// batches. Every implementation sits below worker.flush — fault injection
// (drop/dup/delay) happens above this boundary, so one fault model
// covers every plane — and above the inbox: a delivered batch ends in
// engine.arrive, whichever plane carried it.
type msgPlane[T any] interface {
	// deliver ships msgs from worker `from` to worker `to`, stamped with
	// the sender's snapshot epoch. The plane owns msgs from this call on.
	deliver(from, to int, epoch int32, msgs []VMsg[T])
}

// inproc is the fast path: batches move by pointer handoff.
type inproc[T any] struct{ e *engine[T] }

func (p *inproc[T]) deliver(from, to int, epoch int32, msgs []VMsg[T]) {
	p.e.arrive(to, batch[T]{from: int32(from), epoch: epoch, msgs: msgs})
}

const batchLink int32 = 0 // the self-link every batch rides in TCP mode

// wirePlane is the run's attachment to the TCP transport
// (Options.Transport): the listener and the proxies of remote-hosted
// Programs. With Transport.TCP it is also the run's msgPlane, so every
// batch is a real frame. The coordinator is not on it: the engine's
// ledger counts a batch on shared memory before any plane sees it, so
// no frame can be drained before it is counted.
type wirePlane[T any] struct {
	e       *engine[T]
	tp      *transport.Plane
	remotes []*remoteProg[T] // by worker id; nil for a locally hosted Program
}

// deliver codec-encodes the batch into a KindData frame — [epoch int32]
// then the batch (wire.go) — and ships it through the transport; onFrame
// decodes it back into the destination inbox. Sender-side slices return
// to the pool right after encoding; the receiver decodes into pooled
// slices. A refused batch (plane closed, link dead) will never arrive,
// so the run fails.
func (wp *wirePlane[T]) deliver(from, to int, epoch int32, msgs []VMsg[T]) {
	e := wp.e
	payload := e.job.dataPayload(epoch, msgs)
	e.pool.put(msgs)
	if err := wp.tp.Send(int32(from), int32(to), transport.KindData, payload); err != nil {
		e.fail(fmt.Errorf("core: %s: batch %d→%d: %w", e.job.Name, from, to, err))
	}
}

// onFrame is the plane's delivery callback for batches, running on
// transport reader goroutines: decode into a pooled slice, inbox put.
// The payload is the reader's buffer and is not kept. Any peer that
// dials the listener can send one, so both endpoint ids are checked: to
// indexes the inboxes, and from names the batch's sender in its
// snapshots and its errors.
func (wp *wirePlane[T]) onFrame(f transport.Frame) {
	e := wp.e
	to := int(f.To)
	if to < 0 || to >= e.p.M {
		return
	}
	r := codec.NewReader(f.Payload)
	epoch := r.Int32()
	msgs, err := e.job.readMsgs(r, e.pool.get())
	if err == nil && (f.From < 0 || int(f.From) >= e.p.M) {
		err = fmt.Errorf("sender outside [0,%d)", e.p.M)
	}
	if err != nil {
		e.pool.put(msgs)
		e.fail(fmt.Errorf("core: %s: corrupt batch frame %d→%d: %w", e.job.Name, f.From, f.To, err))
		return
	}
	e.arrive(to, batch[T]{from: f.From, epoch: epoch, msgs: msgs})
}

// onPeerDead is the heartbeat verdict: a link went silent past the death
// threshold (or exhausted its reconnect budget). The batch link's queued
// frames died with it and it serves no host, so the run fails. For a
// host's link the plane has already failed any call parked on it; mark
// the proxy dead and trigger the ordinary quiesce →
// rollback-to-sealed-epoch → replay recovery for the worker it served.
func (wp *wirePlane[T]) onPeerDead(linkID int32, served []int32, err error) {
	if linkID == batchLink && wp.e.opts.Transport.TCP {
		wp.e.fail(fmt.Errorf("core: %s: batch link: %w", wp.e.job.Name, err))
		return
	}
	for _, s := range served {
		if k := int(s) - (wp.e.p.M + 1); k >= 0 && k < wp.e.p.M && wp.remotes[k] != nil {
			wp.remotes[k].markDead()
			wp.e.recov.request(k)
		}
	}
}

// startWirePlane wires the TCP transport into the engine: the remote
// Program proxies (a run with any has a recovery plane, which the peer
// callbacks lean on), the loopback listener, the self-link that carries
// the parent's own batches as real frames, and the wait for each remote
// host to dial in.
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
	cfg := topts.config()
	cfg.OnFrame, cfg.OnPeerDead = wp.onFrame, wp.onPeerDead
	if f := e.opts.Faults; f != nil {
		cfg.Partitions = f.Partitions
	}
	if cfg.ListenAddr = topts.ListenAddr; cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	tp, err := transport.Listen(cfg)
	if err != nil {
		return nil, err
	}
	wp.tp = tp
	if topts.OnListen != nil {
		topts.OnListen(tp.Addr())
	}
	if topts.TCP {
		// The batch link: every worker endpoint routes through one
		// loopback conn, so parent-side batches are serialized, framed,
		// and byte-accounted for real.
		route := make([]int32, e.p.M)
		for i := range route {
			route[i] = int32(i)
		}
		if err := tp.Dial(batchLink, tp.Addr(), nil, route); err != nil {
			wp.stop()
			return nil, err
		}
		e.plane = wp
	}
	for _, k := range topts.RemoteWorkers {
		if err := tp.WaitRoute(hostEndpoint(e.p.M, k), 0, remoteWait, nil); err != nil {
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
	wp.e.coord.forceDone() // also covers early-error exits before the run started
	for _, rp := range wp.remotes {
		if rp != nil && rp.alive() {
			rp.shutdown()
		}
	}
	wp.tp.Close()
}

// collect fetches the values of every Program still hosted remotely,
// before the answer is assembled. A host that cannot hand them over fails
// the run: its proxy's zeros are no answer.
func (wp *wirePlane[T]) collect() error {
	if wp == nil {
		return nil
	}
	for i, w := range wp.e.workers {
		if rp, ok := w.prog.(*remoteProg[T]); ok {
			if err := rp.collect(); err != nil {
				return fmt.Errorf("core: %s: worker %d's values: %w", wp.e.job.Name, i, err)
			}
		}
	}
	return nil
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
