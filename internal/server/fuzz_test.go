package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzDecodeSubHello asserts DecodeSubHello never panics on malformed
// input, and that every hello it accepts re-encodes to a hello that
// decodes back to the same fields, flags included. The corpus is seeded
// from the encoder with every combination of the resume and relay flags.
func FuzzDecodeSubHello(f *testing.F) {
	const spec = "DC1(v, 0.5, 0)"
	for _, h := range []SubHello{
		{App: "app", Source: "src", Spec: spec, Queue: 7},
		{App: "app", Source: "src", Spec: spec, Resume: true, ResumeFrom: 42},
		{App: "app", Source: "src", Spec: spec, Queue: 3, Resume: true, ResumeFrom: 1 << 40, RelayEdge: "edge-1"},
		{App: "a", Source: "s", Spec: spec, RelayEdge: "e"},
	} {
		b, err := EncodeSubHello(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 'a', 1, 's', 1, 'x', 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeSubHello(data)
		if err != nil {
			return
		}
		re, err := EncodeSubHello(h)
		if err != nil {
			t.Fatalf("re-encoding accepted hello %+v: %v", h, err)
		}
		back, err := DecodeSubHello(re)
		if err != nil {
			t.Fatalf("re-encoded hello %+v does not decode: %v", h, err)
		}
		// The struct holds both flags: Resume, and a non-empty RelayEdge.
		if back != h {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", h, back)
		}
	})
}

// FuzzReadFrameInto feeds arbitrary byte streams to ReadFrameInto through
// a minimum-size bufio.Reader (so headers straddle refills) and checks
// every frame it returns against the stream: no payload exceeds
// MaxFramePayload, a stream that ends between frames reports io.EOF, and
// one that ends inside a header or a payload reports
// io.ErrUnexpectedEOF.
func FuzzReadFrameInto(f *testing.F) {
	f.Add(AppendFrame(AppendFrame(nil, FrameHeartbeat, nil), FrameTuple, []byte("payload")))
	f.Add(AppendFrame(nil, FrameTuple, bytes.Repeat([]byte{0xAB}, 40))[:30])
	f.Add([]byte{FrameTuple, 9, 0})
	f.Add([]byte{FrameTuple, 9, 0, 0, 0})
	f.Add([]byte{FrameTuple, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), 16)
		var buf []byte
		off := 0
		for {
			kind, payload, err := ReadFrameInto(br, buf)
			buf = payload
			rest := data[off:]
			if err != nil {
				switch {
				case len(rest) == 0:
					if err != io.EOF {
						t.Fatalf("stream ended between frames at %d: got %v, want io.EOF", off, err)
					}
				case len(rest) < frameHeaderLen,
					binary.LittleEndian.Uint32(rest[1:]) <= MaxFramePayload:
					// A short header, or an acceptable length the stream
					// does not reach: the stream ended inside a frame.
					if !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Fatalf("stream ended inside a frame at %d: got %v, want io.ErrUnexpectedEOF", off, err)
					}
				}
				return
			}
			if len(payload) > MaxFramePayload {
				t.Fatalf("payload of %d bytes exceeds MaxFramePayload", len(payload))
			}
			end := off + frameHeaderLen + len(payload)
			if end > len(data) || kind != rest[0] || !bytes.Equal(payload, data[off+frameHeaderLen:end]) {
				t.Fatalf("frame at %d does not match the stream (kind %d, %d bytes)", off, kind, len(payload))
			}
			off = end
		}
	})
}
