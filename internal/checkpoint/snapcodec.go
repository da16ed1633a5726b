package checkpoint

import (
	"fmt"

	"aap/internal/codec"
)

// EncodeSnapshot serializes a sealed snapshot into a durable record
// payload: per-worker program state, round counters, PEval flags, and
// the captured in-flight batches, each message encoded by enc. The
// epoch is not part of the payload — it lives in the record envelope.
func EncodeSnapshot[M any](s *Snapshot[M], enc func(dst []byte, m M) []byte) []byte {
	buf := codec.AppendUint32(nil, uint32(len(s.States)))
	for _, st := range s.States {
		buf = codec.AppendBytes(buf, st)
	}
	buf = codec.AppendInt32s(buf, s.Rounds)
	buf = codec.AppendBools(buf, s.PEvalDone)
	buf = codec.AppendUint32(buf, uint32(len(s.InFlight)))
	for _, f := range s.InFlight {
		buf = codec.AppendInt32(buf, f.From)
		buf = codec.AppendInt32(buf, f.To)
		buf = codec.AppendUint32(buf, uint32(len(f.Msgs)))
		for _, m := range f.Msgs {
			buf = enc(buf, m)
		}
	}
	return buf
}

// DecodeSnapshot parses a record payload written by EncodeSnapshot.
// Element counts come from the (possibly corrupt) input, so nothing is
// pre-allocated from a header figure: every slice grows by append under
// a reader-error guard, which bounds allocation by the bytes actually
// decoded — the need-before-make discipline of core's readMsgs, extended
// to nested counts. dec must consume at least one byte per message or set
// the reader's error.
func DecodeSnapshot[M any](epoch int32, data []byte, dec func(r *codec.Reader) M) (*Snapshot[M], error) {
	r := codec.NewReader(data)
	nw := int(r.Uint32())
	if lim := r.Remaining(); nw > lim {
		// Each worker entry costs at least a 4-byte state length prefix.
		return nil, fmt.Errorf("checkpoint: snapshot claims %d workers in %d bytes", nw, lim)
	}
	s := &Snapshot[M]{Epoch: epoch}
	for i := 0; i < nw && r.Err() == nil; i++ {
		s.States = append(s.States, append([]byte(nil), r.Bytes()...))
	}
	s.Rounds = r.Int32s()
	s.PEvalDone = r.Bools()
	nf := int(r.Uint32())
	for i := 0; i < nf && r.Err() == nil; i++ {
		f := Flight[M]{From: r.Int32(), To: r.Int32()}
		nm := int(r.Uint32())
		for j := 0; j < nm && r.Err() == nil; j++ {
			f.Msgs = append(f.Msgs, dec(r))
		}
		s.InFlight = append(s.InFlight, f)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing snapshot bytes", r.Remaining())
	}
	if len(s.States) != nw || len(s.Rounds) != nw || len(s.PEvalDone) != nw {
		return nil, fmt.Errorf("checkpoint: snapshot worker vectors disagree: %d states, %d rounds, %d peval flags (want %d)",
			len(s.States), len(s.Rounds), len(s.PEvalDone), nw)
	}
	return s, nil
}
