// Package transport is the pluggable message plane of the engine: the
// byte-level half of the "multi-process distributed plane" item — a
// length-prefixed TCP frame protocol with per-link sequence numbers,
// cumulative acks, replay on reconnect, heartbeat failure detection,
// and bounded jittered-backoff retry. The engine's in-proc channel path
// bypasses this package entirely (it is the fast path); the TCP plane
// codec-encodes message batches at this boundary so communication
// accounting measures real serialized bytes.
//
// The package is deliberately ignorant of the engine's message types:
// frames carry opaque payloads between int32 endpoint ids. Reliability
// guarantees (per PR 7's transport contract):
//
//   - frames between the same pair of processes are delivered in send
//     order (TCP FIFO per conn; replay preserves sequence order);
//   - a frame is delivered at most once (per-sender sequence numbers,
//     receiver drops already-seen sequences after a reconnect replay);
//   - a frame handed to Send is delivered eventually, or the link is
//     declared dead and OnPeerDead fires — nothing is silently lost.
package transport

import (
	"encoding/binary"
	"fmt"

	"aap/internal/codec"
)

// Kind discriminates frame roles on the wire.
type Kind uint8

const (
	// KindHello opens (or resumes) a link: payload is the link id, the
	// endpoint ids served by the sender, and the highest sequence number
	// the sender has delivered from its peer (the resume point).
	KindHello Kind = 1
	// KindHelloAck confirms a Hello with the acceptor's own resume state.
	KindHelloAck Kind = 2
	// KindData carries an engine message batch (codec-encoded VMsgs), one
	// way: Send on one side, OnFrame on the other.
	KindData Kind = 3
	// KindCall carries a request sent by Plane.Call — a remote-worker
	// call (PEval / IncEval / snapshot / restore / collect) or a serving
	// query; which one is decided by the endpoint it is addressed to. The
	// serving plane queues it for that endpoint's Plane.Serve handler and
	// sends the handler's answer back; a plane that does not serve the
	// endpoint refuses it at once.
	KindCall Kind = 4
	// KindReply carries the answer to a KindCall frame. The receiving
	// plane hands it to the caller parked under the same call id and
	// drops it when that caller has given up; it never reaches OnFrame.
	KindReply Kind = 5
	// KindHeartbeat is the liveness beacon; unsequenced, never replayed.
	KindHeartbeat Kind = 6
	// KindAck acknowledges delivery up to a cumulative sequence number;
	// unsequenced.
	KindAck Kind = 7
)

// Frame is one unit on the wire.
//
// Wire layout (little-endian), after a uint32 length prefix covering
// everything below:
//
//	uint8  kind
//	int32  from      sending endpoint id
//	int32  to        destination endpoint id
//	uint64 seq       per-link sequence number; 0 = unsequenced
//	uint64 call      KindCall and KindReply only: the id pairing the two
//	uint8  failed    KindReply only: 1 = payload is the callee's error text
//	...    payload   kind-specific bytes
type Frame struct {
	Kind    Kind
	From    int32
	To      int32
	Seq     uint64
	Call    uint64
	Failed  bool
	Payload []byte
}

// frameHeader is the fixed post-length header size: kind(1) + from(4) +
// to(4) + seq(8).
const frameHeader = 17

// DefaultMaxFrame bounds a single frame (length prefix excluded); a
// length prefix above the limit is rejected before any allocation — the
// frame-layer mirror of the codec's vecLen header-lie guard.
const DefaultMaxFrame = 64 << 20

// AppendFrame appends the wire encoding of f, length prefix included.
func AppendFrame(dst []byte, f Frame) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(f.Kind))
	dst = codec.AppendInt32(dst, f.From)
	dst = codec.AppendInt32(dst, f.To)
	dst = codec.AppendUint64(dst, f.Seq)
	switch f.Kind {
	case KindCall:
		dst = codec.AppendUint64(dst, f.Call)
	case KindReply:
		dst = codec.AppendBool(codec.AppendUint64(dst, f.Call), f.Failed)
	}
	dst = append(dst, f.Payload...)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// parseBody decodes everything after the length prefix; body holds at
// least frameHeader bytes. The Payload aliases body.
func parseBody(body []byte) (Frame, error) {
	f := Frame{Kind: Kind(body[0])}
	if f.Kind < KindHello || f.Kind > KindAck {
		return Frame{}, fmt.Errorf("transport: unknown frame kind %d", f.Kind)
	}
	r := codec.NewReader(body[1:])
	f.From = r.Int32()
	f.To = r.Int32()
	f.Seq = r.Uint64()
	switch f.Kind {
	case KindCall:
		f.Call = r.Uint64()
	case KindReply:
		f.Call = r.Uint64()
		f.Failed = r.Bool()
	}
	if err := r.Err(); err != nil {
		return Frame{}, err
	}
	f.Payload = body[len(body)-r.Remaining():]
	return f, nil
}
