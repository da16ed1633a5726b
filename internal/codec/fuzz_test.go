package codec_test

import (
	"testing"

	"aap/internal/codec"
)

// FuzzCodecDecode drives every decoder over arbitrary byte soup. The
// contract under attack: a decoder must either succeed within the bytes
// it was given or set a sticky error — it must never panic, and a
// length prefix lying about its payload ("2^32 floats follow") must be
// rejected by the need-before-make guard instead of forcing a giant
// allocation.
func FuzzCodecDecode(f *testing.F) {
	// Well-formed seed: one of everything, so the fuzzer starts from a
	// buffer where every decode path initially succeeds and mutations
	// explore the boundaries.
	var seed []byte
	seed = codec.AppendUint32(seed, 42)
	seed = codec.AppendUint64(seed, 1<<40)
	seed = codec.AppendInt32(seed, -7)
	seed = codec.AppendInt64(seed, -1<<50)
	seed = codec.AppendBool(seed, true)
	seed = codec.AppendFloat64(seed, 3.5)
	seed = codec.AppendBytes(seed, []byte("hello"))
	seed = codec.AppendFloat64s(seed, []float64{1, 2, 3})
	seed = codec.AppendInt32s(seed, []int32{-1, 0, 1})
	seed = codec.AppendInt64s(seed, []int64{-9, 9})
	f.Add(seed)

	// Truncations of the seed exercise mid-value cuts.
	for _, n := range []int{0, 1, 3, 4, 7, 11, 12, 20} {
		if n <= len(seed) {
			f.Add(seed[:n])
		}
	}
	// Length-lying prefixes: claim huge vectors with no payload.
	f.Add(codec.AppendUint32(nil, 0xFFFFFFFF))
	f.Add(codec.AppendUint32(codec.AppendUint32(nil, 1<<30), 99))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := codec.NewReader(data)
		_ = r.Uint32()
		_ = r.Uint64()
		_ = r.Int32()
		_ = r.Int64()
		_ = r.Bool()
		_ = r.Float64()
		_ = r.Bytes()
		if vs := r.Float64s(); vs != nil && len(vs)*8 > len(data) {
			t.Fatalf("Float64s over-allocated: %d elems from %d bytes", len(vs), len(data))
		}
		if vs := r.Int32s(); vs != nil && len(vs)*4 > len(data) {
			t.Fatalf("Int32s over-allocated: %d elems from %d bytes", len(vs), len(data))
		}
		if vs := r.Int64s(); vs != nil && len(vs)*8 > len(data) {
			t.Fatalf("Int64s over-allocated: %d elems from %d bytes", len(vs), len(data))
		}
		// A reader that errored must stay errored and keep returning
		// zero values (sticky-error contract).
		if r.Err() != nil {
			if r.Uint64() != 0 || r.Bytes() != nil || r.Float64s() != nil {
				t.Fatal("reads after error returned non-zero values")
			}
		}
	})
}
