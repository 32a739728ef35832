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
// the (msgID, idx, count) triple survives a re-fragmentation round trip:
// an accepted single-fragment payload re-fragments to the same header
// and chunk (split between real bytes and pad at any point), and any
// accepted header is reproduced by fragment idx of a pure-pad message
// of count fragments.
func FuzzParseFragment(f *testing.F) {
	e := &Endpoint{pools: NewPools()}
	f.Add(e.fragmentize(42, []byte("hello fragment"), 0)[0].buf)
	pure := e.fragmentize(43, []byte("x"), 2*MTU)
	f.Add(pure[len(pure)-1].buf) // header only: its whole piece is pad
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
		if len(chunk) != len(data)-fragHeaderLen {
			t.Fatalf("chunk %d bytes from a %d-byte fragment", len(chunk), len(data))
		}
		e := &Endpoint{pools: NewPools()}
		if count == 1 && len(chunk) <= MTU {
			split := len(chunk) / 2
			frags := e.fragmentize(msgID, chunk[:split], len(chunk)-split)
			if len(frags) != 1 {
				t.Fatalf("single-fragment payload re-fragmented into %d", len(frags))
			}
			fr := frags[0]
			if fr.buf[0] != fragFlagLast || !bytes.Equal(fr.buf[1:fragHeaderLen], data[1:fragHeaderLen]) {
				t.Fatalf("re-fragmented header %x, parsed %x", fr.buf[:fragHeaderLen], data[:fragHeaderLen])
			}
			if !bytes.Equal(fr.buf[fragHeaderLen:], chunk[:split]) || fr.pad != len(chunk)-split {
				t.Fatalf("re-fragmented chunk %x + pad %d, want %x + pad %d", fr.buf[fragHeaderLen:], fr.pad, chunk[:split], len(chunk)-split)
			}
		}
		if count > 64 {
			return // bound the re-fragmented message's size
		}
		frags := e.fragmentize(msgID, nil, (count-1)*MTU+1)
		if len(frags) != count {
			t.Fatalf("%d-fragment pure-pad message re-fragmented into %d", count, len(frags))
		}
		fr := frags[idx]
		gotID, gotIdx, gotCount, gotChunk, ok := parseFragment(fr.buf)
		if !ok || gotID != msgID || gotIdx != idx || gotCount != count || len(gotChunk) != 0 {
			t.Fatalf("re-fragmented (%d, %d, %d, %d-byte chunk, ok=%v), parsed (%d, %d, %d)",
				gotID, gotIdx, gotCount, len(gotChunk), ok, msgID, idx, count)
		}
		if last := fr.buf[0] == fragFlagLast; last != (idx == count-1) {
			t.Fatalf("fragment %d of %d: last flag %v", idx, count, last)
		}
	})
}
