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

// DecodeSnapshot parses a record payload written by EncodeSnapshot for a
// run of `workers` workers; any other worker count, or a flight from or
// to a worker outside [0, workers), is an error. Element counts come from
// the (possibly corrupt) input, so every slice grows by append under a
// reader-error guard, which bounds allocation by the bytes actually
// decoded — the need-before-make discipline of core's readMsgs, extended
// to nested counts. dec must consume at least one byte per message or set
// the reader's error.
func DecodeSnapshot[M any](epoch int32, data []byte, workers int, dec func(r *codec.Reader) M) (*Snapshot[M], error) {
	r := codec.NewReader(data)
	if nw := int(r.Uint32()); r.Err() == nil && nw != workers {
		return nil, fmt.Errorf("checkpoint: snapshot has %d workers, want %d", nw, workers)
	}
	s := &Snapshot[M]{Epoch: epoch}
	for i := 0; i < workers && r.Err() == nil; i++ {
		s.States = append(s.States, append([]byte(nil), r.Bytes()...))
	}
	s.Rounds = r.Int32s()
	s.PEvalDone = r.Bools()
	nf := int(r.Uint32())
	for i := 0; i < nf && r.Err() == nil; i++ {
		f := Flight[M]{From: r.Int32(), To: r.Int32()}
		if r.Err() == nil && (f.From < 0 || int(f.From) >= workers || f.To < 0 || int(f.To) >= workers) {
			return nil, fmt.Errorf("checkpoint: in-flight batch %d->%d outside %d workers", f.From, f.To, workers)
		}
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
	if len(s.Rounds) != workers || len(s.PEvalDone) != workers {
		return nil, fmt.Errorf("checkpoint: snapshot worker vectors disagree: %d states, %d rounds, %d peval flags (want %d)",
			len(s.States), len(s.Rounds), len(s.PEvalDone), workers)
	}
	return s, nil
}
