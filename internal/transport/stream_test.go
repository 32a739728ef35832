package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestStreamFrameLayout: a stream frame is the encoded frame's 4-byte
// big-endian length followed by exactly EncodeFrame's bytes, and reads
// back to the same sequence and payload.
func TestStreamFrameLayout(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{0xA0, '{', '}'}
	if err := WriteStreamFrame(&buf, 7, payload); err != nil {
		t.Fatal(err)
	}
	wire, err := EncodeFrame(Frame{Type: FrameData, Seq: 7, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	want := binary.BigEndian.AppendUint32(nil, uint32(len(wire)))
	want = append(want, wire...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream bytes %x, want %x", buf.Bytes(), want)
	}
	seq, got, err := ReadStreamFrame(&buf, len(payload))
	if err != nil || seq != 7 || !bytes.Equal(got, payload) {
		t.Fatalf("read back seq=%d payload=%x err=%v", seq, got, err)
	}
	if _, _, err := ReadStreamFrame(&buf, len(payload)); err != io.EOF {
		t.Fatalf("read at a clean boundary = %v, want exactly io.EOF", err)
	}
}

// TestStreamFrameRejects: every malformed input is an ErrBadStream, and
// a stream truncated inside a frame is never reported as a clean EOF.
func TestStreamFrameRejects(t *testing.T) {
	frame := func(typ FrameType, payload []byte) []byte {
		wire, err := EncodeFrame(Frame{Type: typ, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(wire))), wire...)
	}
	valid := frame(FrameData, []byte("hello"))
	corrupt := bytes.Clone(valid)
	corrupt[len(corrupt)-1] ^= 0xff
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated length", valid[:2]},
		{"zero length", []byte{0, 0, 0, 0}},
		{"length beyond the payload bound", frame(FrameData, make([]byte, 6))},
		{"truncated frame", valid[:len(valid)-3]},
		{"length only", valid[:4]},
		{"corrupt CRC", corrupt},
		{"non-data frame", frame(FrameAck, []byte("hello"))},
		{"empty payload", frame(FrameData, nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadStreamFrame(bytes.NewReader(tc.data), 5)
			if err == nil || err == io.EOF || !errors.Is(err, ErrBadStream) {
				t.Fatalf("err = %v, want an ErrBadStream", err)
			}
		})
	}
}
