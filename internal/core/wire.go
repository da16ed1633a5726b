package core

import (
	"fmt"
	"slices"

	"aap/internal/codec"
)

// The wire form of designated messages, written here once. Everything
// that serializes VMsgs uses it — the TCP data plane's KindData frames,
// the remote IncEval request, the eval reply, the durable snapshot's
// captured flights — so they cannot drift apart:
//
//	message: [V int32][value, by Job.EncodeVal]
//	batch:   [n uint32] then n messages
//
// A batch names its sender once, outside the batch (the frame's From, the
// flight's From), so a message is its vertex and value and nothing else.

// minMsgBytes is the fewest bytes a message can take on the wire.
const minMsgBytes = 5

func (j *Job[T]) appendMsg(dst []byte, m VMsg[T]) []byte {
	return j.EncodeVal(codec.AppendInt32(dst, m.V), m.Val)
}

func (j *Job[T]) readMsg(r *codec.Reader) VMsg[T] {
	m := VMsg[T]{V: r.Int32()}
	m.Val = j.DecodeVal(r)
	return m
}

// batchBytes sizes one batch on the wire, every message sized like the
// first (by Job.valueBytes).
func (j *Job[T]) batchBytes(msgs []VMsg[T]) int {
	if len(msgs) == 0 {
		return 4
	}
	return 4 + len(msgs)*j.valueBytes(msgs[0].Val)
}

// appendMsgs encodes one batch onto dst, which it grows once for the
// whole batch rather than by doubling its way up from a frame header.
func (j *Job[T]) appendMsgs(dst []byte, msgs []VMsg[T]) []byte {
	dst = slices.Grow(dst, j.batchBytes(msgs))
	dst = codec.AppendUint32(dst, uint32(len(msgs)))
	for _, m := range msgs {
		dst = j.appendMsg(dst, m)
	}
	return dst
}

// dataPayload encodes a KindData frame's payload — [epoch int32] then
// the batch — into one buffer sized for both.
func (j *Job[T]) dataPayload(epoch int32, msgs []VMsg[T]) []byte {
	return j.appendMsgs(codec.AppendInt32(make([]byte, 0, 4+j.batchBytes(msgs)), epoch), msgs)
}

// readMsgs decodes one batch from r, appending its messages to dst.
func (j *Job[T]) readMsgs(r *codec.Reader, dst []VMsg[T]) ([]VMsg[T], error) {
	n := int(r.Uint32())
	// Header-lie guard: each message costs at least 5 bytes on the
	// wire (its int32 vertex + ≥1 value byte), so cap the claimed count
	// before appending and let truncation surface as a decode error.
	if lim := r.Remaining()/minMsgBytes + 1; n > lim {
		return dst, fmt.Errorf("core: batch claims %d messages, %d bytes remain", n, r.Remaining())
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		dst = append(dst, j.readMsg(r))
	}
	return dst, r.Err()
}
