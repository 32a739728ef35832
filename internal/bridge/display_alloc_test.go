//go:build !race

package bridge

import (
	"testing"

	"teledrive/internal/sensors"
)

// TestDisplayShowZeroAlloc pins the per-frame station path: once the
// double buffer is warm, decoding and promoting full and delta frames
// allocates nothing.
func TestDisplayShowZeroAlloc(t *testing.T) {
	var d Display
	var st ClientStats
	const pairs = 33
	frames := make([][]byte, 0, 2*pairs)
	for f := uint64(1); f <= pairs; f++ {
		frames = append(frames, sensors.MarshalWorldView(displayTestView(2*f)))
		frames = append(frames, sensors.MarshalWorldViewDelta(displayTestView(2*f), displayTestView(2*f+1), 0))
	}
	// The first pair warms both views' actor backing.
	d.Show(MsgFrame, frames[0], &st)
	d.Show(MsgDeltaFrame, frames[1], &st)

	i := 2
	allocs := testing.AllocsPerRun(pairs-2, func() { // runs pairs-1 times
		typ := MsgFrame
		for k := 0; k < 2; k++ {
			if shown, _ := d.Show(typ, frames[i], &st); !shown {
				t.Fatalf("frame %d not shown", i)
			}
			i++
			typ = MsgDeltaFrame
		}
	})
	if allocs != 0 {
		t.Fatalf("Display.Show allocates %.1f/frame pair, want 0", allocs)
	}
}
