package modelvehicle

import (
	"testing"

	"teledrive/internal/vehicle"
)

func TestCourseValidates(t *testing.T) {
	scn := Course()
	if err := scn.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := scn.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The ego must be the scaled model car, not the sedan.
	if b.Ego.Extent.X > 1 {
		t.Fatalf("ego extent %v is not model-scale", b.Ego.Extent)
	}
	if b.Route.Length() < 40 {
		t.Fatalf("course length = %v, want a ≈50+ m loop", b.Route.Length())
	}
}

func TestCourseLaneIsNarrow(t *testing.T) {
	scn := Course()
	if scn.LaneWidth != CourseLaneWidth || scn.LaneWidth > 1 {
		t.Fatalf("lane width = %v", scn.LaneWidth)
	}
}

func TestOperatorProfileValid(t *testing.T) {
	if err := Operator().Validate(); err != nil {
		t.Fatal(err)
	}
	// Model-scale deadband: centimetres, not the sedan's decimetres.
	if Operator().LateralDeadband > 0.1 {
		t.Fatalf("deadband %v not model-scale", Operator().LateralDeadband)
	}
}

func TestDriverConfigValid(t *testing.T) {
	cfg := DriverConfig()
	// The task is filled in by the bench at run time; validate with the
	// course's task attached.
	b, err := Course().Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Task = b.Task
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	spec := vehicle.ScaledModelCar()
	if cfg.Wheelbase != spec.Wheelbase {
		t.Fatalf("wheelbase %v != plant %v", cfg.Wheelbase, spec.Wheelbase)
	}
	if cfg.LookaheadMax > 10 {
		t.Fatalf("lookahead max %v not model-scale", cfg.LookaheadMax)
	}
	if cfg.IDM.DesiredSpeed > spec.MaxSpeed {
		t.Fatalf("desired speed %v exceeds plant top speed", cfg.IDM.DesiredSpeed)
	}
}

func TestPlantSpec(t *testing.T) {
	// The course spawns the scale-model plant the validity runs drive.
	b, err := Course().Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Ego.Plant.Spec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.Length > 1 {
		t.Fatalf("plant length %v not a scale model", spec.Length)
	}
}

func TestCourseValidateFieldsMatchDriverTask(t *testing.T) {
	scn := Course()
	b, err := scn.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Task.LaneWidth != CourseLaneWidth {
		t.Fatalf("task lane width = %v", b.Task.LaneWidth)
	}
	if len(b.Task.SpeedPlan) == 0 || b.Task.SpeedPlan[0].Speed > 5 {
		t.Fatalf("speed plan = %+v", b.Task.SpeedPlan)
	}
}
