// Package world implements the simulated driving environment that stands
// in for the CARLA server: a road network of lanes, a set of actors (the
// remotely driven ego vehicle, scripted traffic, parked cars, cyclists),
// fixed-timestep stepping, and collision / lane-invasion detection.
//
// The ego vehicle is the only full dynamic plant (vehicle.Vehicle); the
// scripted road users ride deterministic "rails" along lane paths with
// speed profiles, which keeps traffic reproducible — a property the paper
// needed from CARLA's scenario scripting and that a HIL campaign depends
// on.
package world

import (
	"fmt"

	"teledrive/internal/geom"
	"teledrive/internal/vehicle"
)

// ActorID identifies an actor within a World. IDs are assigned
// sequentially from 1 when actors are spawned.
type ActorID int

// ActorKind classifies road users, mirroring CARLA blueprint categories.
type ActorKind int

// Actor kinds.
const (
	KindEgo ActorKind = iota + 1
	KindCar
	KindParkedCar
	KindCyclist
)

// String returns a readable kind name.
func (k ActorKind) String() string {
	switch k {
	case KindEgo:
		return "ego"
	case KindCar:
		return "car"
	case KindParkedCar:
		return "parked-car"
	case KindCyclist:
		return "cyclist"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Actor is one road user. Exactly one of Plant/rail is set: the ego has
// a dynamic plant driven by remote controls, scripted traffic rides a
// Rail.
type Actor struct {
	ID     ActorID
	Kind   ActorKind
	Name   string
	Extent geom.Vec2 // bounding box (length, width)

	// Plant is the dynamic vehicle model (ego only).
	Plant *vehicle.Vehicle
	// rail is the scripted motion (traffic only).
	rail *Rail

	// Lane-invasion tracking, owned by World.detectLaneInvasions: dense
	// per-actor state instead of side maps keyed by ActorID.
	laneWatch bool   // actor is watched for lane events
	laneSeen  bool   // baseline lane has been observed
	laneID    string // current lane ("" = off-road)
}

// Pose returns the actor's current pose.
func (a *Actor) Pose() geom.Pose {
	if a.Plant != nil {
		return a.Plant.State().Pose
	}
	return a.rail.Pose()
}

// Speed returns the actor's current longitudinal speed in m/s.
func (a *Actor) Speed() float64 {
	if a.Plant != nil {
		return a.Plant.State().Speed
	}
	return a.rail.Speed()
}

// Velocity returns the world-frame velocity vector.
func (a *Actor) Velocity() geom.Vec2 {
	return a.Pose().Forward().Scale(a.Speed())
}

// Accel returns the longitudinal acceleration from the last step.
func (a *Actor) Accel() float64 {
	if a.Plant != nil {
		return a.Plant.State().Accel
	}
	return a.rail.Accel()
}

// Rail returns the actor's rail, or nil for the dynamic ego.
func (a *Actor) Rail() *Rail { return a.rail }

// BoundingBox returns the actor's oriented bounding box.
func (a *Actor) BoundingBox() geom.OBB {
	p := a.Pose()
	return geom.OBB{Center: p.Pos, Half: geom.V(a.Extent.X/2, a.Extent.Y/2), Yaw: p.Yaw}
}

// step advances the actor by dt seconds.
func (a *Actor) step(dt float64) {
	if a.Plant != nil {
		a.Plant.Step(dt)
		return
	}
	a.rail.Step(dt)
}
