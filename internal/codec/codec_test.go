package codec_test

import (
	"testing"
	"testing/quick"

	"aap/internal/codec"
)

func TestRoundTripScalars(t *testing.T) {
	var buf []byte
	buf = codec.AppendUint32(buf, 42)
	buf = codec.AppendUint64(buf, 1<<40)
	buf = codec.AppendFloat64(buf, 3.5)
	buf = codec.AppendBytes(buf, []byte("hello"))
	buf = codec.AppendFloat64s(buf, []float64{1, 2, 3})

	r := codec.NewReader(buf)
	if got := r.Uint32(); got != 42 {
		t.Errorf("Uint32 = %d", got)
	}
	if got := r.Uint64(); got != 1<<40 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := r.Float64(); got != 3.5 {
		t.Errorf("Float64 = %v", got)
	}
	if got := r.Bytes(); string(got) != "hello" {
		t.Errorf("Bytes = %q", got)
	}
	vs := r.Float64s()
	if len(vs) != 3 || vs[0] != 1 || vs[2] != 3 {
		t.Errorf("Float64s = %v", vs)
	}
	if r.Err() != nil {
		t.Errorf("unexpected error: %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("remaining = %d", r.Remaining())
	}
}

func TestRoundTripIntsAndBools(t *testing.T) {
	var buf []byte
	buf = codec.AppendInt32(buf, -42)
	buf = codec.AppendInt64(buf, -1<<40)
	buf = codec.AppendBool(buf, true)
	buf = codec.AppendBool(buf, false)
	buf = codec.AppendInt32s(buf, []int32{-1, 0, 1})
	buf = codec.AppendInt64s(buf, []int64{-9, 1 << 50})

	r := codec.NewReader(buf)
	if got := r.Int32(); got != -42 {
		t.Errorf("Int32 = %d", got)
	}
	if got := r.Int64(); got != -1<<40 {
		t.Errorf("Int64 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if vs := r.Int32s(); len(vs) != 3 || vs[0] != -1 {
		t.Errorf("Int32s = %v", vs)
	}
	if vs := r.Int64s(); len(vs) != 2 || vs[1] != 1<<50 {
		t.Errorf("Int64s = %v", vs)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestTruncatedInput(t *testing.T) {
	buf := codec.AppendUint64(nil, 7)
	r := codec.NewReader(buf[:4])
	_ = r.Uint64()
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Errors are sticky: further reads return zero values.
	if got := r.Uint32(); got != 0 {
		t.Errorf("read after error = %d", got)
	}
}

func TestTruncatedVector(t *testing.T) {
	buf := codec.AppendUint32(nil, 1000) // claims 1000 floats, provides none
	r := codec.NewReader(buf)
	if vs := r.Float64s(); vs != nil {
		t.Errorf("Float64s on truncated input = %v", vs)
	}
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a uint32, b uint64, c float64, s string, vec []float64) bool {
		var buf []byte
		buf = codec.AppendUint32(buf, a)
		buf = codec.AppendUint64(buf, b)
		buf = codec.AppendFloat64(buf, c)
		buf = codec.AppendBytes(buf, []byte(s))
		buf = codec.AppendFloat64s(buf, vec)
		r := codec.NewReader(buf)
		if r.Uint32() != a || r.Uint64() != b {
			return false
		}
		if got := r.Float64(); got != c && !(got != got && c != c) { // NaN-safe
			return false
		}
		if string(r.Bytes()) != s {
			return false
		}
		got := r.Float64s()
		if len(got) != len(vec) {
			return false
		}
		for i := range got {
			if got[i] != vec[i] && !(got[i] != got[i] && vec[i] != vec[i]) {
				return false
			}
		}
		return r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyBytes(t *testing.T) {
	buf := codec.AppendBytes(nil, nil)
	r := codec.NewReader(buf)
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("empty blob round trip = %q", got)
	}
	if r.Err() != nil {
		t.Error(r.Err())
	}
}

// TestVectorsGrowOnce pins that a vector appender sizes dst once: the
// 400 KB reply of a served SSSP query is one AppendFloat64s onto a small
// header, which must not double its way up.
func TestVectorsGrowOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime counts allocations of its own")
	}
	vs := make([]float64, 50_000)
	for i := range vs {
		vs[i] = float64(i) / 3
	}
	if n := testing.AllocsPerRun(10, func() { codec.AppendFloat64s(nil, vs) }); n != 1 {
		t.Fatalf("AppendFloat64s of %d values: %v allocations, want 1", len(vs), n)
	}
	is := make([]int32, 50_000)
	if n := testing.AllocsPerRun(10, func() { codec.AppendInt32s(nil, is) }); n != 1 {
		t.Fatalf("AppendInt32s of %d values: %v allocations, want 1", len(is), n)
	}
	r := codec.NewReader(codec.AppendFloat64s(nil, vs))
	if got := r.Float64s(); r.Err() != nil || len(got) != len(vs) || got[len(vs)-1] != vs[len(vs)-1] {
		t.Fatalf("Float64s round trip: %v, %d values", r.Err(), len(got))
	}
}
