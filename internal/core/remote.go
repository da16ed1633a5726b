package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aap/internal/codec"
	"aap/internal/partition"
	"aap/internal/transport"
)

// Remote Program hosting. The parent process keeps everything stateful
// about the run — worker loops, inboxes, the coordinator, the
// checkpoint store — and moves only the Program (the PIE kernel) into
// the worker process. The host is a passive RPC executor: PEval /
// IncEval / Snapshot / Restore / Collect arrive as frames, run against
// the local Program, and the produced designated messages travel back
// in the reply for the parent to route through its ordinary flush path.
// This keeps the Mattern and seal accounting entirely inside the
// parent, so a host process dying at any instant loses only Program
// state — exactly what the sealed snapshot restores.

// Host ops. Each is one transport.Plane.Call from the worker's endpoint
// to its host endpoint: request [op int32][args...], reply [results...].
const (
	rpcPEval int32 = iota + 1
	rpcIncEval
	rpcSnapshot
	rpcRestore
	rpcCollect
	rpcReset
	rpcShutdown
)

// remoteProg is the parent-side Program proxy for one remote-hosted
// worker. It implements Program and Snapshotter by shipping each call
// to the host endpoint and injecting the returned messages into the
// worker's Context, so the engine cannot tell it from a local kernel.
type remoteProg[T any] struct {
	wp   *wirePlane[T] // the calls go out on its transport
	w    int           // worker id (= our endpoint)
	host int32         // host endpoint id

	// dead is set by the heartbeat verdict (or a call the host never
	// answered) and cleared by rejoin when a supervisor respawns the
	// host, so a proxy can die and come back any number of times across
	// one run. It only steers recovery; what unblocks a call in flight is
	// the plane failing it when the host's link dies.
	dead atomic.Bool

	collected []T // the host's values, fetched by the first Get
}

func (rp *remoteProg[T]) markDead() { rp.dead.Store(true) }

func (rp *remoteProg[T]) alive() bool { return !rp.dead.Load() }

// rejoin rearms a proxy whose host was respawned: the new incarnation
// has completed its handshake, so calls may flow again. Called by the
// recovery event with the run quiesced — no call is in flight, and the
// rollback that follows restores the Program over RPC.
func (rp *remoteProg[T]) rejoin() {
	rp.dead.Store(false)
	rp.collected = nil
}

// call ships one op and blocks for the reply. It does NOT abort when the
// run ends — result collection runs after the run finishes — only on host
// death or the timeout. An error that is not the host's own refusal
// (transport.RemoteError) means the host is gone: the proxy is marked
// dead, the caller returns inert results and the death path (recovery)
// takes over.
func (rp *remoteProg[T]) call(req []byte, timeout time.Duration) (*codec.Reader, error) {
	resp, err := rp.wp.tp.Call(int32(rp.w), rp.host, req, timeout, nil)
	if err != nil {
		var refused transport.RemoteError
		if !errors.As(err, &refused) {
			rp.markDead()
		}
		return nil, fmt.Errorf("core: host of worker %d: %w", rp.w, err)
	}
	return codec.NewReader(resp), nil
}

// rpcTimeout bounds a single Program call round trip. A host that
// cannot answer an eval this long is as good as dead — the heartbeat
// detector will almost always fire first.
const rpcTimeout = 60 * time.Second

// eval ships an eval op and decodes its reply into ctx: work accounting
// plus every produced designated message, routed exactly as a local
// kernel's ctx.Send would have.
func (rp *remoteProg[T]) eval(req []byte, ctx *Context[T]) {
	e := rp.wp.e
	r, err := rp.call(req, rpcTimeout)
	if err != nil {
		// A dead host is recovery's business: it rolls this round back. The
		// worker asks for it here, before the lost round counts as done, so
		// the run cannot terminate on that round ahead of the detector's
		// verdict — which never comes for a host a respawn superseded. A
		// host that answered with an error (its Program panicked, or it
		// could not read the request) fails the run, as a local worker's
		// panic does.
		if rp.alive() {
			e.fail(fmt.Errorf("core: %s: round %d: %w", e.job.Name, ctx.round, err))
		} else {
			e.recov.request(rp.w)
		}
		return
	}
	ctx.AddWork(int(r.Int64()))
	nd := int(r.Uint32())
	for d := 0; d < nd && err == nil; d++ {
		dest := int(r.Int32())
		if dest < 0 || dest >= e.p.M {
			err = fmt.Errorf("destination %d of %d workers", dest, e.p.M)
			break
		}
		if ctx.out[dest] == nil {
			ctx.out[dest] = ctx.pool.get()
		}
		ctx.out[dest], err = e.job.readMsgs(r, ctx.out[dest])
	}
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		e.fail(fmt.Errorf("core: %s: corrupt eval reply from host of worker %d: %w", e.job.Name, rp.w, err))
	}
}

func (rp *remoteProg[T]) PEval(ctx *Context[T]) {
	rp.eval(codec.AppendInt32(codec.AppendInt32(nil, rpcPEval), ctx.round), ctx)
}

func (rp *remoteProg[T]) IncEval(msgs []VMsg[T], ctx *Context[T]) {
	req := codec.AppendInt32(codec.AppendInt32(nil, rpcIncEval), ctx.round)
	rp.eval(rp.wp.e.job.appendMsgs(req, msgs), ctx)
}

// collect fetches the host's values for Get (wirePlane.collect, before
// the answer is assembled). An error means the host is gone or garbled
// its reply.
func (rp *remoteProg[T]) collect() error {
	if rp.collected != nil {
		return nil
	}
	if !rp.alive() {
		return fmt.Errorf("core: host of worker %d is dead", rp.w)
	}
	r, err := rp.call(codec.AppendInt32(nil, rpcCollect), rpcTimeout)
	if err != nil {
		return err
	}
	e := rp.wp.e
	f := e.p.Frags[rp.w]
	vals := make([]T, f.Hi-f.Lo)
	for i := range vals {
		vals[i] = e.job.DecodeVal(r)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: host of worker %d: corrupt values: %w", rp.w, err)
	}
	rp.collected = vals
	return nil
}

func (rp *remoteProg[T]) Get(v int32) T {
	var zero T
	f := rp.wp.e.p.Frags[rp.w]
	if rp.collected == nil || v < f.Lo || v >= f.Hi {
		return zero
	}
	return rp.collected[v-f.Lo]
}

func (rp *remoteProg[T]) SnapshotState() []byte {
	r, err := rp.call(codec.AppendInt32(nil, rpcSnapshot), rpcTimeout)
	if err != nil {
		return nil // record() skips dead proxies before getting here
	}
	return append([]byte(nil), r.Bytes()...)
}

// RestoreState's error is the host's own (its Program refused the
// bytes) or the call's (the host is gone).
func (rp *remoteProg[T]) RestoreState(data []byte) error {
	_, err := rp.call(codec.AppendBytes(codec.AppendInt32(nil, rpcRestore), data), rpcTimeout)
	return err
}

// reset asks the host to rebuild a fresh Program (the from-scratch
// rollback path, where no sealed snapshot exists).
func (rp *remoteProg[T]) reset() error {
	_, err := rp.call(codec.AppendInt32(nil, rpcReset), rpcTimeout)
	return err
}

// shutdown tells the host process to exit; best-effort with a short
// deadline (a dead host already exited, a live one replies instantly).
func (rp *remoteProg[T]) shutdown() {
	rp.call(codec.AppendInt32(nil, rpcShutdown), 2*time.Second)
}

// ServeWorker hosts worker `workerID`'s Program for a parent engine
// listening at parentAddr: the child half of the two-process plane. The
// caller must have built the identical partitioned graph (deterministic
// generators + the same partitioner), mirroring how cluster workers
// load the same fragment assignment. ServeWorker blocks until the
// parent sends a shutdown RPC or the link to it is declared dead (the
// parent exited or the network stayed down past the retry budget).
func ServeWorker[T any](p *partition.Partitioned, job Job[T], workerID int, parentAddr string, topts TransportOptions) error {
	if workerID < 0 || workerID >= p.M {
		return fmt.Errorf("core: ServeWorker: worker %d out of range [0,%d)", workerID, p.M)
	}
	if job.EncodeVal == nil || job.DecodeVal == nil {
		return fmt.Errorf("core: %s: remote hosting requires Job.EncodeVal/DecodeVal", job.Name)
	}
	f := p.Frags[workerID]
	prog := job.New(f)
	pool := &msgPool[T]{}
	ctx := newContext[T](f, p.M, pool)
	host := hostEndpoint(p.M, workerID)
	scratch := make([]VMsg[T], 0, 256)

	// over closes when the host has nothing left to do: the parent said so
	// (rpcShutdown) or its link died (the parent exited, or the engine
	// recovered without us).
	over := make(chan struct{})
	var overOnce sync.Once
	end := func() { overOnce.Do(func() { close(over) }) }

	cfg := topts.config()
	cfg.OnPeerDead = func(int32, []int32, error) { end() }
	tp, err := transport.Listen(cfg)
	if err != nil {
		return err
	}
	defer tp.Close()
	// One goroutine owns the Program; the parent has one eval in flight
	// and the control ops beside it, far below 16.
	tp.Serve(host, 1, 16, func(fr transport.Frame) ([]byte, error) {
		r := codec.NewReader(fr.Payload)
		op := r.Int32()
		var resp []byte
		switch op {
		case rpcPEval:
			ctx.round = r.Int32()
			prog.PEval(ctx)
			resp = appendEvalReply(resp, ctx, &job, pool)
		case rpcIncEval:
			ctx.round = r.Int32()
			var err error
			if scratch, err = job.readMsgs(r, scratch[:0]); err != nil {
				return nil, fmt.Errorf("corrupt IncEval request: %w", err)
			}
			prog.IncEval(scratch, ctx)
			resp = appendEvalReply(resp, ctx, &job, pool)
		case rpcSnapshot:
			var state []byte
			if s, ok := prog.(Snapshotter); ok {
				state = s.SnapshotState()
			}
			resp = codec.AppendBytes(resp, state)
		case rpcRestore:
			// A refusal is the call's error: the host lives on.
			s, ok := prog.(Snapshotter)
			if !ok {
				return nil, errors.New("program does not implement Snapshotter")
			}
			return nil, s.RestoreState(append([]byte(nil), r.Bytes()...))
		case rpcCollect:
			for v := f.Lo; v < f.Hi; v++ {
				resp = job.EncodeVal(resp, prog.Get(v))
			}
		case rpcReset:
			prog = job.New(f)
			ctx = newContext[T](f, p.M, pool)
		case rpcShutdown:
			// Give the writer a beat to flush the reply before closing.
			time.AfterFunc(50*time.Millisecond, end)
		default:
			return nil, fmt.Errorf("unknown op %d", op)
		}
		return resp, nil
	})
	if err := tp.Dial(host, parentAddr, []int32{host}, []int32{int32(workerID)}); err != nil {
		return err
	}
	<-over
	return nil
}

// appendEvalReply drains ctx's produced messages into the reply of both
// eval ops — [work int64][ndest uint32] then per destination [dest
// int32] and one batch (wire.go) — and recycles the buffers.
func appendEvalReply[T any](resp []byte, ctx *Context[T], job *Job[T], pool *msgPool[T]) []byte {
	out, work := ctx.TakeOut()
	resp = codec.AppendInt64(resp, work)
	nd := 0
	for _, msgs := range out {
		if len(msgs) > 0 {
			nd++
		}
	}
	resp = codec.AppendUint32(resp, uint32(nd))
	for j, msgs := range out {
		if len(msgs) == 0 {
			continue
		}
		resp = job.appendMsgs(codec.AppendInt32(resp, int32(j)), msgs)
		pool.put(msgs)
	}
	ctx.ReleaseOut(out)
	return resp
}
