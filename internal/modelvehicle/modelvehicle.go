// Package modelvehicle implements the remotely-operated scale model
// vehicle used for the paper's §VIII validity comparison: a ~1:10 RC car
// driven around an indoor course over an unreliable (smartphone-camera
// style) video link. Its dynamics are much faster relative to its size
// than a real car's, which is why the paper found it degrades at far
// lower network-fault levels (>20 ms delay noticeable, >100 ms
// impossible; 7 % loss conscious impact, 10 % impossible).
package modelvehicle

import (
	"math"
	"time"

	"teledrive/internal/bridge"
	"teledrive/internal/driver"
	"teledrive/internal/geom"
	"teledrive/internal/scenario"
	"teledrive/internal/sensors"
	"teledrive/internal/session"
	"teledrive/internal/simclock"
	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
	"teledrive/internal/world"
)

// CourseLaneWidth is the model course's taped lane width in metres.
const CourseLaneWidth = 0.6

// courseMap builds the indoor test course: a ≈70 m loop of straights
// and tight turns at model scale.
func courseMap() *world.RoadMap {
	ref := geom.NewPathBuilder(geom.Pose{}).
		Straight(15).
		Arc(3.5, math.Pi/2).
		Straight(8).
		Arc(3.5, math.Pi/2).
		Straight(15).
		Arc(3.5, math.Pi/2).
		Straight(8).
		Arc(3.5, math.Pi/2).
		MustBuild()
	return &world.RoadMap{
		Name:      "model-course",
		Reference: ref,
		Lanes: []*world.Lane{
			{ID: "track", Center: ref.Offset(0), Width: CourseLaneWidth},
		},
	}
}

// Course returns the model-vehicle driving scenario: two laps' worth of
// the course (single pass over the loop path), no traffic.
func Course() *scenario.Scenario {
	ref := courseMap().Reference
	spec := vehicle.ScaledModelCar()
	return &scenario.Scenario{
		Name:            "model-course",
		MapBuilder:      courseMap,
		RouteOffsets:    []world.OffsetSegment{{FromStation: 0, Offset: 0}},
		BlendLen:        2,
		LaneWidth:       CourseLaneWidth,
		EgoStartStation: 1,
		EgoSpec:         &spec,
		SpeedPlan: []driver.SpeedInstruction{
			{FromStation: 0, Speed: 3},
		},
		EndStation: ref.Length() - 2,
		Timeout:    3 * time.Minute,
		Weather:    "indoor",
	}
}

// Operator returns the driver profile for the model-vehicle experiments:
// the same human model, re-scaled to the small vehicle (short preview,
// tight deadband, fast wheel).
func Operator() driver.Profile {
	return driver.Profile{
		Name:            "model-op",
		Seed:            7777,
		ReactionTime:    260 * time.Millisecond,
		Anticipation:    0.3, // unfamiliar scaled dynamics defeat prediction
		SteerNoise:      0.004,
		NearGain:        0.5, // 1/m: centimetre errors matter at this scale
		LateralDeadband: 0.03,
		LookaheadTime:   0.45,
		Aggressiveness:  1.0,
		Caution:         0.5,
		WheelRate:       4.0,
	}
}

// DriverConfig returns the driver configuration scaled to the model car.
func DriverConfig() driver.Config {
	spec := vehicle.ScaledModelCar()
	return driver.Config{
		Profile: Operator(),
		IDM: driver.IDMParams{
			DesiredSpeed: 3.2,
			TimeHeadway:  1.0,
			MinGap:       0.3,
			MaxAccel:     1.8,
			ComfortBrake: 2.0,
			Exponent:     4,
		},
		Wheelbase:       spec.Wheelbase,
		MaxSteerAngle:   spec.MaxSteerAngle,
		PlantAccel:      spec.MaxAccel,
		PlantBrake:      spec.MaxBrake,
		EmergencyTTC:    1.2,
		LookaheadMin:    0.9,
		LookaheadMax:    4,
		LateralComfort:  3.0,
		NominalFrameAge: sensors.DefaultFrameInterval + 10*time.Millisecond,
	}
}

// Plant is the scale-model vehicle subsystem: the paper's RC car with
// its smartphone-camera uplink. It speaks the same bridge protocol as
// the simulator plant — the session layer cannot tell them apart — and
// reports the model-scale frame geometry.
type Plant struct {
	*bridge.Server
}

// NewStack is the session.StackBuilder for the model-vehicle
// environment: the scale-model plant over the datagram
// (smartphone-camera style) link. Pass it via rds.BenchConfig.NewStack
// or validity.Env.NewStack.
func NewStack(clock *simclock.Clock, w *world.World, ego *world.Actor, seed int64, topts transport.Options) (*session.Stack, error) {
	sess, err := bridge.NewSessionWithTransport(clock, w, ego, seed, topts)
	if err != nil {
		return nil, err
	}
	return &session.Stack{
		Plant:  &Plant{Server: sess.Server},
		Client: sess.Client,
		Links:  sess.Conn.Links,
	}, nil
}
