// Package sensors implements the CARLA-like sensor suite of the vehicle
// subsystem: a camera that captures structured world-view frames (the
// stand-in for the video feed), collision and lane-invasion event
// sensors, and compact binary codecs so the frames can travel the
// emulated network.
//
// The substitution argument (DESIGN.md §2): the remote operator's
// perception is exactly the content of the most recently displayed video
// frame. Whether the payload is pixels or a structured snapshot of the
// visible scene, network delay and loss degrade its freshness the same
// way, and it is the freshness that the driver model consumes.
package sensors

import (
	"time"

	"teledrive/internal/geom"
	"teledrive/internal/world"
)

// ActorView is one road user as seen in a camera frame.
type ActorView struct {
	ID     world.ActorID
	Kind   world.ActorKind
	Pose   geom.Pose
	Speed  float64   // longitudinal speed, m/s
	Steer  float64   // normalized steering command (meaningful for the ego)
	Extent geom.Vec2 // bounding box (length, width)
}

// WorldView is the structured content of one camera frame.
type WorldView struct {
	Frame   uint64        // world tick at capture
	SimTime time.Duration // simulated capture time
	Ego     ActorView
	Others  []ActorView // visible road users, nearest first not guaranteed
	// VideoFill is the synthetic encoded-video payload size carried on
	// the wire with this frame. The paper's CARLA streams real images;
	// what matters for fault injection is that one displayed frame is
	// MANY network packets, so p% packet loss disturbs far more than p%
	// of frames (see transport.MTU). The content is irrelevant, so the
	// bytes are never built: the size rides in the wire header and on
	// the link as virtual pad (transport.Endpoint.SendPadded).
	VideoFill int
}

// Age returns how stale the view is at the given time.
func (v WorldView) Age(now time.Duration) time.Duration { return now - v.SimTime }

// DefaultVideoFrameBytes is the synthetic encoded-video size per frame:
// ≈24 kB at 28 fps ≈ a 5.4 Mbit/s stream (a raw CARLA frame is
// megabytes — thousands of packets; 24 kB ≈ 18 MTU fragments keeps the
// simulation tractable while preserving the property that packet loss
// hits nearly every displayed frame, which is what made 5 % loss so
// punishing in the paper).
const DefaultVideoFrameBytes = 24000

// Camera captures world views from the ego's perspective at a fixed
// frame period, standing in for CARLA's RGB camera + video encoder.
type Camera struct {
	// Range culls actors farther than this from the ego (m).
	Range float64
	// RearRange culls actors more than this far behind the ego (m);
	// a small positive value models the mirrors.
	RearRange float64
	// VideoFrameBytes is the synthetic video payload per frame.
	VideoFrameBytes int
	// VideoDeltaBytes is the synthetic video residual a delta frame
	// ships instead of VideoFrameBytes when the bridge streams
	// keyframe+diff views (DESIGN.md §14).
	VideoDeltaBytes int

	w   *world.World
	ego *world.Actor
}

// DefaultFrameInterval is ≈28 fps, the middle of the paper's observed
// 25–30 fps range (§V-A).
const DefaultFrameInterval = 36 * time.Millisecond

// NewCamera creates a camera following the ego actor.
func NewCamera(w *world.World, ego *world.Actor) *Camera {
	return &Camera{Range: 150, RearRange: 30, VideoFrameBytes: DefaultVideoFrameBytes, VideoDeltaBytes: DefaultVideoDeltaBytes, w: w, ego: ego}
}

// Capture snapshots the currently visible scene.
func (c *Camera) Capture() WorldView {
	var view WorldView
	c.CaptureInto(&view)
	return view
}

// CaptureInto snapshots the currently visible scene into view, reusing
// view.Others' capacity so the steady-state capture path does not
// allocate. The result is identical to Capture. A first pass counts the
// visible actors so a fresh (or outgrown) Others slice is sized exactly
// once.
func (c *Camera) CaptureInto(view *WorldView) {
	egoPose := c.ego.Pose()
	view.Frame = c.w.Frame()
	view.SimTime = c.w.SimTime()
	view.Ego = actorView(c.ego)
	view.VideoFill = c.VideoFrameBytes
	rangeSq := c.Range * c.Range
	visible := 0
	for _, a := range c.w.Actors() {
		if c.sees(egoPose, a, rangeSq) {
			visible++
		}
	}
	if cap(view.Others) < visible {
		view.Others = make([]ActorView, 0, visible)
	} else {
		view.Others = view.Others[:0]
	}
	for _, a := range c.w.Actors() {
		if c.sees(egoPose, a, rangeSq) {
			view.Others = append(view.Others, actorView(a))
		}
	}
}

// sees reports whether the camera includes the actor in a frame: not
// the ego itself, within Range of it (compared in squared distance to
// avoid the sqrt), and not farther behind than RearRange.
func (c *Camera) sees(egoPose geom.Pose, a *world.Actor, rangeSq float64) bool {
	if a.ID == c.ego.ID {
		return false
	}
	rel := egoPose.InversePoint(a.Pose().Pos)
	if rel.LenSq() > rangeSq || rel.X < -c.RearRange {
		return false
	}
	return true
}

func actorView(a *world.Actor) ActorView {
	v := ActorView{
		ID:     a.ID,
		Kind:   a.Kind,
		Pose:   a.Pose(),
		Speed:  a.Speed(),
		Extent: a.Extent,
	}
	if a.Plant != nil {
		v.Steer = a.Plant.Control().Steer
	}
	return v
}

// CollisionSensor buffers collision events involving its actor,
// matching CARLA's collision sensor attachment model.
type CollisionSensor struct {
	actor  world.ActorID
	events []world.CollisionEvent
}

// NewCollisionSensor attaches a collision sensor for the given actor and
// registers it on the world. Only one OnCollision consumer exists per
// world; the sensor chains to any previously installed callback.
func NewCollisionSensor(w *world.World, actor world.ActorID) *CollisionSensor {
	s := &CollisionSensor{actor: actor}
	prev := w.OnCollision
	w.OnCollision = func(ev world.CollisionEvent) {
		if prev != nil {
			prev(ev)
		}
		if ev.Actor == actor || ev.Other == actor {
			s.events = append(s.events, ev)
		}
	}
	return s
}

// Drain returns and clears the buffered events.
func (s *CollisionSensor) Drain() []world.CollisionEvent {
	out := s.events
	s.events = nil
	return out
}

// LaneInvasionSensor buffers lane-invasion events for its actor.
type LaneInvasionSensor struct {
	actor  world.ActorID
	events []world.LaneInvasionEvent
}

// NewLaneInvasionSensor attaches a lane-invasion sensor for the given
// actor, chaining to any previously installed callback.
func NewLaneInvasionSensor(w *world.World, actor world.ActorID) *LaneInvasionSensor {
	s := &LaneInvasionSensor{actor: actor}
	prev := w.OnLaneInvasion
	w.OnLaneInvasion = func(ev world.LaneInvasionEvent) {
		if prev != nil {
			prev(ev)
		}
		if ev.Actor == actor {
			s.events = append(s.events, ev)
		}
	}
	return s
}

// Drain returns and clears the buffered events.
func (s *LaneInvasionSensor) Drain() []world.LaneInvasionEvent {
	out := s.events
	s.events = nil
	return out
}
