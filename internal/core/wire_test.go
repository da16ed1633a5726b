package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aap/internal/codec"
)

// checkReadMsgs is the property every input must satisfy, valid or not:
// readMsgs does not panic, decodes no more messages than the bytes can
// hold (13 each at the least), and grows its result by appending — so a
// count field that lies costs nothing.
func checkReadMsgs[T any](t *testing.T, job *Job[T], data []byte) ([]VMsg[T], error) {
	t.Helper()
	msgs, err := job.readMsgs(codec.NewReader(data), nil)
	if lim := len(data)/13 + 1; len(msgs) > lim {
		t.Fatalf("%d bytes decoded to %d messages (limit %d)", len(data), len(msgs), lim)
	}
	if lim := 2*(len(data)/13+1) + 4; cap(msgs) > lim {
		t.Fatalf("%d bytes grew a slice of capacity %d (limit %d)", len(data), cap(msgs), lim)
	}
	return msgs, err
}

// testReadMsgs: a valid batch round-trips; every proper prefix of it, a
// count that lies high, and the batch behind a count of 2³²−1 are
// errors; random byte flips decode or fail within the bounds above.
func testReadMsgs[T any](t *testing.T, job *Job[T], gen func(*rand.Rand) T) {
	rng := rand.New(rand.NewSource(20180610))
	for trial := 0; trial < 60; trial++ {
		want := make([]VMsg[T], rng.Intn(40))
		for i := range want {
			want[i] = VMsg[T]{V: rng.Int31(), Round: rng.Int31n(100), From: rng.Int31n(64), Val: gen(rng)}
		}
		data := job.appendMsgs(nil, want)
		got, err := checkReadMsgs(t, job, data)
		if err != nil || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("round trip of %d messages: %v\n got %+v\nwant %+v", len(want), err, got, want)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := checkReadMsgs(t, job, data[:cut]); err == nil {
				t.Fatalf("prefix %d of a %d-byte batch decoded without error", cut, len(data))
			}
		}
		for _, lie := range []uint32{uint32(len(want)) + 1, uint32(len(want))*2 + 7, 1 << 20, math.MaxUint32} {
			lying := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(lying, lie)
			if _, err := checkReadMsgs(t, job, lying); err == nil {
				t.Fatalf("count %d over %d messages decoded without error", lie, len(want))
			}
		}
		for flip := 0; flip < 50; flip++ {
			bad := append([]byte(nil), data...)
			for k := rng.Intn(3); k >= 0; k-- {
				bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			}
			checkReadMsgs(t, job, bad)
		}
	}
}

// The three value codecs the kernels ship: sssp and pagerank's float64,
// the []float64 vector inside cf's values, cc's int64.
var (
	float64Job  = Job[float64]{EncodeVal: codec.AppendFloat64, DecodeVal: (*codec.Reader).Float64}
	float64sJob = Job[[]float64]{EncodeVal: codec.AppendFloat64s, DecodeVal: (*codec.Reader).Float64s}
	int64Job    = Job[int64]{EncodeVal: codec.AppendInt64, DecodeVal: (*codec.Reader).Int64}
)

func TestReadMsgs(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		testReadMsgs(t, &float64Job, func(r *rand.Rand) float64 { return r.NormFloat64() })
	})
	t.Run("float64s", func(t *testing.T) {
		testReadMsgs(t, &float64sJob, func(r *rand.Rand) []float64 {
			v := make([]float64, 1+r.Intn(5))
			for i := range v {
				v[i] = r.NormFloat64()
			}
			return v
		})
	})
	t.Run("int64", func(t *testing.T) {
		testReadMsgs(t, &int64Job, func(r *rand.Rand) int64 { return int64(r.Uint64()) })
	})
}

func FuzzReadMsgs(f *testing.F) {
	f.Add([]byte{})
	f.Add(float64Job.appendMsgs(nil, []VMsg[float64]{{V: 1, Round: 2, From: 3, Val: 4.5}, {V: 6}}))
	f.Add(float64sJob.appendMsgs(nil, []VMsg[[]float64]{{V: 1, Val: []float64{1, 2}}, {V: 2, Val: nil}}))
	f.Add(codec.AppendUint32(nil, math.MaxUint32))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadMsgs(t, &float64Job, data)
		checkReadMsgs(t, &float64sJob, data)
		checkReadMsgs(t, &int64Job, data)
	})
}
