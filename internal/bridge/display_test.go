package bridge

import (
	"testing"
	"time"

	"teledrive/internal/geom"
	"teledrive/internal/sensors"
	"teledrive/internal/world"
)

func displayTestView(frame uint64) sensors.WorldView {
	actor := func(id world.ActorID, x float64) sensors.ActorView {
		return sensors.ActorView{ID: id, Kind: world.KindCar, Pose: geom.Pose{Pos: geom.V(x, 0)}, Speed: 10, Extent: geom.V(2.4, 1.1)}
	}
	return sensors.WorldView{
		Frame: frame, SimTime: time.Duration(frame) * 36 * time.Millisecond,
		Ego:    actor(1, float64(frame)),
		Others: []sensors.ActorView{actor(2, float64(frame)+20)},
	}
}

// TestDisplayStateMachine walks the shared station display through
// every transition both station implementations rely on: newer-only
// promotion, delta apply, chain breaks with spaced keyframe requests,
// and protocol errors.
func TestDisplayStateMachine(t *testing.T) {
	var d Display
	var st ClientStats
	show := func(typ MsgType, body []byte) (bool, bool) { return d.Show(typ, body, &st) }
	full := func(frame uint64) []byte { return sensors.MarshalWorldView(displayTestView(frame)) }
	delta := func(base, frame uint64) []byte {
		return sensors.MarshalWorldViewDelta(displayTestView(base), displayTestView(frame), 0)
	}

	if shown, resync := show(MsgDeltaFrame, delta(9, 10)); shown || !resync {
		t.Fatalf("delta with nothing displayed: shown=%v resync=%v, want a keyframe request", shown, resync)
	}
	if shown, _ := show(MsgFrame, full(10)); !shown {
		t.Fatal("first full frame not shown")
	}
	if shown, _ := show(MsgFrame, full(10)); shown {
		t.Fatal("a frame no newer than the displayed one was shown")
	}
	if shown, _ := show(MsgDeltaFrame, delta(10, 11)); !shown {
		t.Fatal("delta against the displayed frame not shown")
	}
	if v, ok := d.Frame(); !ok || v.Frame != 11 || v.Others[0].Pose.Pos.X != 31 {
		t.Fatalf("displayed %+v ok=%v, want frame 11 reconstructed", v, ok)
	}

	// A broken chain asks at once, then every eighth break.
	var asked []int
	for i := 1; i <= 16; i++ {
		if shown, resync := show(MsgDeltaFrame, delta(10, 12)); shown {
			t.Fatal("delta against a lost base was shown")
		} else if resync {
			asked = append(asked, i)
		}
	}
	if len(asked) != 3 || asked[0] != 1 || asked[1] != 8 || asked[2] != 16 {
		t.Fatalf("keyframe requests at breaks %v, want [1 8 16]", asked)
	}
	// An accepted frame resets the streak.
	if shown, _ := show(MsgFrame, full(13)); !shown {
		t.Fatal("keyframe after the break not shown")
	}
	if _, resync := show(MsgDeltaFrame, delta(12, 14)); !resync {
		t.Fatal("first break after a shown frame did not ask for a keyframe")
	}

	if shown, resync := show(MsgFrame, []byte{1, 2, 3}); shown || resync {
		t.Fatal("garbage frame shown or resynced")
	}
	want := ClientStats{FramesReceived: 4, FramesStale: 1, DeltasApplied: 1, DeltaResyncs: 18, ProtocolErrors: 1}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}
