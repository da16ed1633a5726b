package checkpoint_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"aap/internal/checkpoint"
	"aap/internal/codec"
)

// FuzzDurableDecode feeds arbitrary bytes through every durable decode
// surface — record envelope and snapshot payload — and pins
// the crash-consistency contract: corrupt, truncated, or length-lying
// input must come back as an error, never a panic, and never an
// allocation larger than the input itself (the need-before-make guard,
// same discipline as decodeBatch). A snapshot that decodes is one a
// two-worker run can index: two workers, every flight inside them.
func FuzzDurableDecode(f *testing.F) {
	snap := &checkpoint.Snapshot[int64]{
		Epoch:     3,
		States:    [][]byte{codec.AppendInt64(nil, 42), nil},
		Rounds:    []int32{5, 4},
		PEvalDone: []bool{true, true},
		InFlight:  []checkpoint.Flight[int64]{{From: 1, To: 0, Msgs: []int64{7, -9}}},
	}
	payload := checkpoint.EncodeSnapshot(snap, encInt64)

	// Seed corpus: a valid snapshot payload, assorted truncations of
	// it, and shapes that lie about their lengths.
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add(payload[:1])
	f.Add([]byte{})
	f.Add(codec.AppendUint32(nil, 0xffffffff))                   // worker count lie
	f.Add(codec.AppendUint32(codec.AppendUint32(nil, 1), 1<<30)) // state length lie
	lie := codec.AppendUint32(nil, 2)                            // 2 workers...
	lie = codec.AppendBytes(lie, nil)                            // ...but one state
	f.Add(lie)
	// Well-formed payloads a two-worker run must refuse: three workers,
	// and a flight to worker 2.
	three := *snap
	three.States = append(three.States, nil)
	three.Rounds = append(three.Rounds, 1)
	three.PEvalDone = append(three.PEvalDone, true)
	f.Add(checkpoint.EncodeSnapshot(&three, encInt64))
	outside := *snap
	outside.InFlight = []checkpoint.Flight[int64]{{From: 0, To: 2, Msgs: []int64{7}}}
	f.Add(checkpoint.EncodeSnapshot(&outside, encInt64))
	// A whole record as WriteEpoch lays it down, and the same bytes
	// claiming format version 1, which DecodeRecord must refuse.
	d, err := checkpoint.OpenDurable(f.TempDir(), checkpoint.DurableOptions{})
	if err != nil {
		f.Fatal(err)
	}
	if err := d.WriteEpoch(3, payload); err != nil {
		f.Fatal(err)
	}
	rec, err := os.ReadFile(filepath.Join(d.Dir(), checkpoint.RecordFile(3)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	v1 := append([]byte(nil), rec...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Record envelope: any successful parse must have actually
		// validated the CRC over a payload that fits the input.
		if epoch, p, err := checkpoint.DecodeRecord(data); err == nil {
			if len(p) > len(data) || epoch <= 0 {
				t.Fatalf("DecodeRecord accepted epoch %d with %d payload bytes from %d input bytes", epoch, len(p), len(data))
			}
		}
		// Snapshot payload: decoded structure must be bounded by the
		// input (every state byte, round, flag, and 8-byte message was
		// read from somewhere).
		s, err := checkpoint.DecodeSnapshot(1, data, 2, decInt64)
		if err != nil {
			return
		}
		if len(s.States) != 2 {
			t.Fatalf("decoded %d workers for a two-worker run", len(s.States))
		}
		for _, fl := range s.InFlight {
			if fl.From < 0 || fl.From >= 2 || fl.To < 0 || fl.To >= 2 {
				t.Fatalf("decoded flight %d->%d for a two-worker run", fl.From, fl.To)
			}
		}
		total := 0
		for _, st := range s.States {
			total += len(st) + 4
		}
		total += 4 * len(s.Rounds)
		total += len(s.PEvalDone)
		for _, fl := range s.InFlight {
			total += 12 + 8*len(fl.Msgs)
		}
		if total > len(data) {
			t.Fatalf("decoded %d bytes of structure from %d input bytes", total, len(data))
		}
	})
}
