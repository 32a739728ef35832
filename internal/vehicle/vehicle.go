// Package vehicle implements the vehicle plant model used by the
// simulator: a kinematic bicycle with CARLA-style normalized controls
// (throttle, brake, steer in [-1,1]) plus first-order actuator lags and
// rate limits.
//
// The kinematic bicycle is the standard reduced model for urban-speed
// driving studies: it captures the pose/velocity/steering coupling that
// the paper's safety metrics (TTC, SRR, collisions) depend on, without
// needing tyre or suspension models.
package vehicle

import (
	"fmt"
	"math"

	"teledrive/internal/geom"
)

// Control is a driving command, mirroring CARLA's VehicleControl message.
// All fields are normalized.
type Control struct {
	Throttle  float64 // [0, 1]
	Steer     float64 // [-1, 1]; positive steers left (CCW yaw)
	Brake     float64 // [0, 1]
	Reverse   bool    // drive in reverse gear
	HandBrake bool    // emergency stop
}

// Clamp returns the control with every field forced into its legal range.
func (c Control) Clamp() Control {
	c.Throttle = geom.Clamp(c.Throttle, 0, 1)
	c.Steer = geom.Clamp(c.Steer, -1, 1)
	c.Brake = geom.Clamp(c.Brake, 0, 1)
	return c
}

// Spec holds the physical parameters of a vehicle model.
type Spec struct {
	Name          string
	Length        float64 // bounding box length, m
	Width         float64 // bounding box width, m
	Wheelbase     float64 // m
	MaxSteerAngle float64 // max road-wheel angle at |steer| = 1, rad
	SteerRate     float64 // road-wheel slew rate, rad/s
	MaxAccel      float64 // full-throttle acceleration at standstill, m/s²
	MaxBrake      float64 // full-brake deceleration, m/s²
	MaxSpeed      float64 // engine-limited top speed, m/s
	MaxReverse    float64 // top reverse speed, m/s
	DragCoeff     float64 // aero drag decel = DragCoeff · v², 1/m
	RollingResist float64 // constant rolling-resistance decel when moving, m/s²
}

// Validate reports an error when the spec is not physically meaningful.
func (s Spec) Validate() error {
	switch {
	case s.Length <= 0 || s.Width <= 0:
		return fmt.Errorf("vehicle: spec %q: non-positive dimensions %vx%v", s.Name, s.Length, s.Width)
	case s.Wheelbase <= 0 || s.Wheelbase > s.Length:
		return fmt.Errorf("vehicle: spec %q: wheelbase %v outside (0, length]", s.Name, s.Wheelbase)
	case s.MaxSteerAngle <= 0 || s.MaxSteerAngle >= math.Pi/2:
		return fmt.Errorf("vehicle: spec %q: max steer angle %v outside (0, π/2)", s.Name, s.MaxSteerAngle)
	case s.SteerRate <= 0:
		return fmt.Errorf("vehicle: spec %q: non-positive steer rate", s.Name)
	case s.MaxAccel <= 0 || s.MaxBrake <= 0:
		return fmt.Errorf("vehicle: spec %q: non-positive accel/brake limits", s.Name)
	case s.MaxSpeed <= 0 || s.MaxReverse < 0:
		return fmt.Errorf("vehicle: spec %q: bad speed limits", s.Name)
	case s.DragCoeff < 0 || s.RollingResist < 0:
		return fmt.Errorf("vehicle: spec %q: negative resistance", s.Name)
	}
	return nil
}

// Sedan returns the spec of the mid-size sedan used as the ego and
// traffic vehicle, roughly matching CARLA's default Tesla Model 3
// blueprint dimensions.
func Sedan() Spec {
	return Spec{
		Name:          "sedan",
		Length:        4.7,
		Width:         1.9,
		Wheelbase:     2.9,
		MaxSteerAngle: 35 * math.Pi / 180,
		SteerRate:     0.9, // rad/s at the road wheel
		MaxAccel:      3.8,
		MaxBrake:      8.0,
		MaxSpeed:      47.0, // ≈170 km/h
		MaxReverse:    8.0,
		DragCoeff:     0.0009,
		RollingResist: 0.18,
	}
}

// Bicycle returns a spec approximating a cyclist, used for the paper's
// false-positive cyclist events.
func Bicycle() Spec {
	return Spec{
		Name:          "bicycle",
		Length:        1.8,
		Width:         0.6,
		Wheelbase:     1.1,
		MaxSteerAngle: 50 * math.Pi / 180,
		SteerRate:     2.0,
		MaxAccel:      1.2,
		MaxBrake:      4.0,
		MaxSpeed:      9.0,
		MaxReverse:    0.5,
		DragCoeff:     0.004,
		RollingResist: 0.08,
	}
}

// ScaledModelCar returns the spec of the remotely-operated scale model
// vehicle from the paper's validity comparison (§VIII): a ~1:10 RC car
// with much faster dynamics relative to its size, which is why it
// degrades at lower network-fault levels.
func ScaledModelCar() Spec {
	return Spec{
		Name:          "model-car",
		Length:        0.45,
		Width:         0.2,
		Wheelbase:     0.26,
		MaxSteerAngle: 30 * math.Pi / 180,
		SteerRate:     6.0,
		MaxAccel:      3.0,
		MaxBrake:      5.0,
		MaxSpeed:      8.0,
		MaxReverse:    2.0,
		DragCoeff:     0.02,
		RollingResist: 0.3,
	}
}

// State is the instantaneous dynamic state of a vehicle.
type State struct {
	Pose       geom.Pose
	Speed      float64 // signed longitudinal speed, m/s (negative = reversing)
	Accel      float64 // longitudinal acceleration last step, m/s²
	SteerAngle float64 // actual road-wheel angle, rad
}

// Velocity returns the world-frame velocity vector.
func (s State) Velocity() geom.Vec2 {
	return s.Pose.Forward().Scale(s.Speed)
}

// Vehicle is a simulated vehicle plant. Create one with New and advance
// it with Step. Vehicle is not safe for concurrent use.
type Vehicle struct {
	spec    Spec
	state   State
	control Control
}

// New returns a vehicle at the given pose, at rest. It returns an error
// when the spec is invalid.
func New(spec Spec, pose geom.Pose) (*Vehicle, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Vehicle{spec: spec, state: State{Pose: pose}}, nil
}

// MustNew is New but panics on error; for fixed, known-good specs.
func MustNew(spec Spec, pose geom.Pose) *Vehicle {
	v, err := New(spec, pose)
	if err != nil {
		panic(err)
	}
	return v
}

// Spec returns the vehicle's physical parameters.
func (v *Vehicle) Spec() Spec { return v.spec }

// State returns the current dynamic state.
func (v *Vehicle) State() State { return v.state }

// Control returns the most recently applied control.
func (v *Vehicle) Control() Control { return v.control }

// SetState overwrites the dynamic state (used when spawning or scripting
// traffic).
func (v *Vehicle) SetState(s State) { v.state = s }

// Apply stores the control to be used by subsequent Steps. Out-of-range
// fields are clamped. In a remote-driving loop the control keeps acting
// until replaced — exactly the failure mode that makes network delay
// dangerous.
func (v *Vehicle) Apply(c Control) { v.control = c.Clamp() }

// BoundingBox returns the vehicle's oriented bounding box at its current
// pose. The pose is the center of the box (rear-axle offset is ignored at
// this modelling level).
func (v *Vehicle) BoundingBox() geom.OBB {
	return geom.OBB{
		Center: v.state.Pose.Pos,
		Half:   geom.V(v.spec.Length/2, v.spec.Width/2),
		Yaw:    v.state.Pose.Yaw,
	}
}

// Step advances the plant by dt seconds using the stored control.
func (v *Vehicle) Step(dt float64) {
	if dt <= 0 {
		return
	}
	c := v.control
	st := &v.state

	// --- Steering actuator: slew-rate-limited tracking of the target.
	target := c.Steer * v.spec.MaxSteerAngle
	maxDelta := v.spec.SteerRate * dt
	st.SteerAngle += geom.Clamp(target-st.SteerAngle, -maxDelta, maxDelta)

	// --- Longitudinal dynamics.
	drive := c.Throttle * v.spec.MaxAccel
	if c.Reverse {
		drive = -drive
	}
	// Engine force fades as speed approaches the limit.
	limit := v.spec.MaxSpeed
	if c.Reverse {
		limit = v.spec.MaxReverse
	}
	if limit > 0 {
		frac := math.Abs(st.Speed) / limit
		if frac > 1 {
			frac = 1
		}
		drive *= 1 - frac
	}

	resist := v.spec.DragCoeff*st.Speed*st.Speed + v.spec.RollingResist
	if st.Speed == 0 { //lint:allow floateq the stop logic below clamps Speed to exactly 0; "at rest" is an exact state, not a computed value
		resist = 0
	}
	// Resistance always opposes motion.
	if st.Speed < 0 {
		resist = -resist
	}

	brake := c.Brake * v.spec.MaxBrake
	if c.HandBrake {
		brake = v.spec.MaxBrake
	}
	// Braking opposes motion and cannot reverse it within a step.
	var brakeAccel float64
	switch {
	case st.Speed > 0:
		brakeAccel = -brake
	case st.Speed < 0:
		brakeAccel = brake
	}

	accel := drive - resist + brakeAccel
	newSpeed := st.Speed + accel*dt

	// Braking and resistance must not flip the sign of motion; crossing
	// zero within a step is only allowed when the driver is actively
	// driving in the new direction (gear change).
	if st.Speed > 0 && newSpeed < 0 && !(c.Reverse && c.Throttle > 0) {
		newSpeed = 0
	}
	if st.Speed < 0 && newSpeed > 0 && (c.Reverse || c.Throttle == 0) { //lint:allow floateq a released pedal is the exact zero control input, not a computed value
		newSpeed = 0
	}
	st.Accel = (newSpeed - st.Speed) / dt
	st.Speed = newSpeed

	// --- Kinematic bicycle pose update.
	yawRate := 0.0
	if v.spec.Wheelbase > 0 {
		yawRate = st.Speed / v.spec.Wheelbase * math.Tan(st.SteerAngle)
	}
	st.Pose.Yaw = geom.NormalizeAngle(st.Pose.Yaw + yawRate*dt)
	st.Pose.Pos = st.Pose.Pos.Add(geom.UnitFromAngle(st.Pose.Yaw).Scale(st.Speed * dt))
}
