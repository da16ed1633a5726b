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
// same discipline as decodeBatch).
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
		s, err := checkpoint.DecodeSnapshot(1, data, decInt64)
		if err != nil {
			return
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
