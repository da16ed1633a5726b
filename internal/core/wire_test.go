package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aap/internal/codec"
	"aap/internal/transport"
)

// checkReadMsgs is the property every input must satisfy, valid or not:
// readMsgs does not panic, decodes no more messages than the bytes can
// hold (minMsgBytes each at the least), and grows its result by appending
// — so a count field that lies costs nothing.
func checkReadMsgs[T any](t *testing.T, job *Job[T], data []byte) ([]VMsg[T], error) {
	t.Helper()
	msgs, err := job.readMsgs(codec.NewReader(data), nil)
	if lim := len(data)/minMsgBytes + 1; len(msgs) > lim {
		t.Fatalf("%d bytes decoded to %d messages (limit %d)", len(data), len(msgs), lim)
	}
	if lim := 2*(len(data)/minMsgBytes+1) + 4; cap(msgs) > lim {
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
			want[i] = VMsg[T]{V: rng.Int31(), Val: gen(rng)}
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
	f.Add(float64Job.appendMsgs(nil, []VMsg[float64]{{V: 1, Val: 4.5}, {V: 6}}))
	f.Add(float64sJob.appendMsgs(nil, []VMsg[[]float64]{{V: 1, Val: []float64{1, 2}}, {V: 2, Val: nil}}))
	f.Add(codec.AppendUint32(nil, math.MaxUint32))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadMsgs(t, &float64Job, data)
		checkReadMsgs(t, &float64sJob, data)
		checkReadMsgs(t, &int64Job, data)
	})
}

// TestDataFrameRoundTripAllocs pins what a steady-state batch costs the
// heap on its way over the batch link: the sender's payload, one buffer
// sized for the epoch and the batch together, and the receiver's codec
// reader, and nothing else — the reader reads the frame into its reused
// buffer, the batch decodes into a pooled slice and the ack is built
// without a buffer of its own.
func TestDataFrameRoundTripAllocs(t *testing.T) {
	free := make(chan []VMsg[float64], 1)
	got := make(chan []VMsg[float64], 1)
	free <- make([]VMsg[float64], 0, 64)
	tp, err := transport.Listen(transport.Config{ListenAddr: "127.0.0.1:0", OnFrame: func(f transport.Frame) {
		r := codec.NewReader(f.Payload)
		r.Int32()
		msgs, err := float64Job.readMsgs(r, (<-free)[:0])
		if err != nil {
			panic(err)
		}
		got <- msgs
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	if err := tp.Dial(batchLink, tp.Addr(), nil, []int32{0}); err != nil {
		t.Fatal(err)
	}
	batch := make([]VMsg[float64], 48)
	for i := range batch {
		batch[i] = VMsg[float64]{V: int32(i), Val: float64(i) / 7}
	}
	encode := func() []byte { return float64Job.dataPayload(1, batch) }
	trip := func() {
		if err := tp.Send(0, 0, transport.KindData, encode()); err != nil {
			panic(err)
		}
		msgs := <-got
		if len(msgs) != len(batch) || msgs[len(batch)-1] != batch[len(batch)-1] {
			panic(fmt.Sprintf("batch of %d decoded to %d messages", len(batch), len(msgs)))
		}
		free <- msgs
	}
	for i := 0; i < 500; i++ { // until the queues and buffers stop growing
		trip()
	}
	if n := testing.AllocsPerRun(100, func() { encode() }); n != 1 {
		t.Fatalf("a data payload allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(2000, trip); n != 2 {
		t.Fatalf("a steady-state data frame round trip allocates %v times, want 2: the payload and one reader", n)
	}
}
