package transport

import (
	"bytes"
	"testing"

	"aap/internal/codec"
)

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
	rest := buf
	for i, want := range frames {
		got, r, err := ParseFrame(rest, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		rest = r
		if got.Kind != want.Kind || got.From != want.From || got.To != want.To || got.Seq != want.Seq ||
			got.Call != want.Call || got.Failed != want.Failed {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d payload: got %q want %q", i, got.Payload, want.Payload)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after parsing all frames", len(rest))
	}
}

func TestParseFrameRejects(t *testing.T) {
	good := AppendFrame(nil, Frame{Kind: KindData, From: 1, To: 2, Seq: 3, Payload: []byte("xyz")})
	cases := []struct {
		name string
		buf  []byte
		max  int
	}{
		{"empty", nil, 0},
		{"short prefix", good[:3], 0},
		{"truncated body", good[:len(good)-1], 0},
		{"length below header", codec.AppendUint32(nil, frameHeader-1), 0},
		{"length-lying oversize", codec.AppendUint32(nil, 1<<30), 0},
		{"over frame limit", good, 8},
		{"call id cut short", AppendFrame(nil, Frame{Kind: KindCall})[:4+frameHeader+7], 0},
		{"unknown kind", func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99
			return b
		}(), 0},
	}
	for _, c := range cases {
		if _, _, err := ParseFrame(c.buf, c.max); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

// FuzzFrameDecode asserts the decoder never panics and never trusts a
// lying length prefix: arbitrary bytes either parse into a frame whose
// payload fits the input, or error out.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, Frame{Kind: KindData, From: 1, To: 2, Seq: 9, Payload: []byte("seed")}))
	f.Add(AppendFrame(nil, Frame{Kind: KindHeartbeat}))
	f.Add(AppendFrame(nil, Frame{Kind: KindReply, From: 2, To: 1, Seq: 10, Call: 3, Failed: true, Payload: []byte("no")}))
	f.Add(codec.AppendUint32(nil, 0xFFFFFFFF))
	f.Add(codec.AppendUint32(nil, frameHeader))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, rest, err := ParseFrame(data, 1<<16)
		if err != nil {
			return
		}
		if len(fr.Payload)+len(rest) > len(data) {
			t.Fatalf("decoded frame claims more bytes than the input holds: payload %d + rest %d > input %d",
				len(fr.Payload), len(rest), len(data))
		}
		if fr.Kind < KindHello || fr.Kind > KindAck {
			t.Fatalf("decoder accepted unknown kind %d", fr.Kind)
		}
		// A successfully parsed frame must survive re-encode → re-parse.
		re := AppendFrame(nil, fr)
		fr2, _, err := ParseFrame(re, 1<<16)
		if err != nil {
			t.Fatalf("re-parse of re-encoded frame failed: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.From != fr.From || fr2.To != fr.To || fr2.Seq != fr.Seq ||
			fr2.Call != fr.Call || fr2.Failed != fr.Failed || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("re-encode round trip mismatch: %+v vs %+v", fr, fr2)
		}
	})
}
