package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"sync/atomic"
	"testing"

	"aap/internal/codec"
)

// reader is what a link's read loop wraps its connection in, over data.
func reader(data []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(data)) }

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: KindData, From: 2, To: 5, Seq: 17, Payload: []byte("batch bytes")},
		{Kind: KindHeartbeat},
		{Kind: KindCall, From: 0, To: 8, Seq: 1, Call: 1 << 40, Payload: nil},
		{Kind: KindReply, From: 8, To: 0, Seq: 2, Call: 1 << 40, Payload: []byte("answer")},
		{Kind: KindReply, From: 8, To: 0, Seq: 3, Call: 7, Failed: true, Payload: []byte("refused")},
		{Kind: KindAck, Payload: codec.AppendUint64(nil, 42)},
	}
	var buf []byte
	for _, f := range frames {
		buf = AppendFrame(buf, f)
	}
	br := reader(buf)
	var in atomic.Int64
	for i, want := range frames {
		got, err := readFrame(br, DefaultMaxFrame, &in)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.From != want.From || got.To != want.To || got.Seq != want.Seq ||
			got.Call != want.Call || got.Failed != want.Failed {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d payload: got %q want %q", i, got.Payload, want.Payload)
		}
	}
	if _, err := readFrame(br, DefaultMaxFrame, &in); err != io.EOF {
		t.Fatalf("after the last frame: err = %v, want io.EOF", err)
	}
	if in.Load() != int64(len(buf)) {
		t.Fatalf("wireIn charged %d bytes, want %d", in.Load(), len(buf))
	}
}

// TestReadFrameRejects: every malformed input is an error, and exactly
// the ones that break the framing — not a read cut short — wrap
// errFraming, which fences the link instead of redialing it.
func TestReadFrameRejects(t *testing.T) {
	good := AppendFrame(nil, Frame{Kind: KindData, From: 1, To: 2, Seq: 3, Payload: []byte("xyz")})
	cases := []struct {
		name    string
		buf     []byte
		max     int
		framing bool
	}{
		{"empty", nil, DefaultMaxFrame, false},
		{"short prefix", good[:3], DefaultMaxFrame, false},
		{"truncated body", good[:len(good)-1], DefaultMaxFrame, false},
		{"length below header", codec.AppendUint32(nil, frameHeader-1), DefaultMaxFrame, true},
		{"length-lying oversize", codec.AppendUint32(nil, 1<<30), DefaultMaxFrame, true},
		{"over frame limit", good, 8, true},
		{"call id cut short", callCutShort(), DefaultMaxFrame, true},
		{"unknown kind", func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99
			return b
		}(), DefaultMaxFrame, true},
	}
	for _, c := range cases {
		var in atomic.Int64
		_, err := readFrame(reader(c.buf), c.max, &in)
		if err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		} else if errors.Is(err, errFraming) != c.framing {
			t.Errorf("%s: %v wraps errFraming %v, want %v", c.name, err, !c.framing, c.framing)
		}
	}
}

// callCutShort is a KindCall frame whose length prefix covers only 7 of
// its 8 call-id bytes.
func callCutShort() []byte {
	b := AppendFrame(nil, Frame{Kind: KindCall})[:4+frameHeader+7]
	b[0], b[1], b[2], b[3] = frameHeader+7, 0, 0, 0
	return b
}

// FuzzFrameDecode feeds arbitrary bytes to readFrame, the reader every
// peer's bytes reach, and asserts it never panics and never trusts a
// lying length prefix: the input either parses into a frame whose
// payload fits the bytes consumed, or errors out.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, Frame{Kind: KindData, From: 1, To: 2, Seq: 9, Payload: []byte("seed")}))
	f.Add(AppendFrame(nil, Frame{Kind: KindHeartbeat}))
	f.Add(AppendFrame(nil, Frame{Kind: KindReply, From: 2, To: 1, Seq: 10, Call: 3, Failed: true, Payload: []byte("no")}))
	f.Add(codec.AppendUint32(nil, 0xFFFFFFFF))
	f.Add(codec.AppendUint32(nil, frameHeader))
	f.Fuzz(func(t *testing.T, data []byte) {
		var in atomic.Int64
		fr, err := readFrame(reader(data), 1<<16, &in)
		if err != nil {
			return
		}
		if in.Load() > int64(len(data)) || len(fr.Payload)+4+frameHeader > int(in.Load()) {
			t.Fatalf("decoded frame claims more bytes than the input holds: payload %d, charged %d, input %d",
				len(fr.Payload), in.Load(), len(data))
		}
		if fr.Kind < KindHello || fr.Kind > KindAck {
			t.Fatalf("decoder accepted unknown kind %d", fr.Kind)
		}
		// A successfully parsed frame must survive re-encode → re-parse.
		re := AppendFrame(nil, fr)
		fr2, err := readFrame(reader(re), 1<<16, &in)
		if err != nil {
			t.Fatalf("re-parse of re-encoded frame failed: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.From != fr.From || fr2.To != fr.To || fr2.Seq != fr.Seq ||
			fr2.Call != fr.Call || fr2.Failed != fr.Failed || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("re-encode round trip mismatch: %+v vs %+v", fr, fr2)
		}
	})
}
