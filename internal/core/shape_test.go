package core

import (
	"testing"

	"teledrive/internal/faultinject"
	"teledrive/internal/scenario"
)

// These tests pin the paper-shape properties the driver calibration was
// tuned for, on a small number of runs so they are cheap enough for the
// regular suite. The campaign-level claims are gated by TestPaperClaims
// in the root package (claims_test.go).

func followWith(t *testing.T, name string, cond faultinject.Condition, seed int64) *Result {
	t.Helper()
	prof := subject(t, name)
	scn := scenario.FollowVehicle()
	var faults []faultinject.Condition
	if cond != faultinject.CondNFI {
		faults = make([]faultinject.Condition, len(scn.POIs))
		for i := range faults {
			faults[i] = cond
		}
	}
	res, err := RunOne(RunSpec{Scenario: scn, Profile: prof, Seed: seed, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestShapeLossRaisesSRR(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	golden := followWith(t, "T3", faultinject.CondNFI, 77)
	lossy := followWith(t, "T3", faultinject.CondLoss5, 77)
	g := golden.Analysis.SRRWholeRun
	f := lossy.Analysis.SRRByCondition["5%"]
	if f <= g {
		t.Fatalf("SRR under 5%% loss (%v) not above golden (%v)", f, g)
	}
}

func TestShapeBoldSubjectCrashesAt50msOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// T6 is the boldest subject: 50 ms delay at every POI must crash it,
	// the golden run must not — the §VI-E attribution in miniature.
	golden := followWith(t, "T6", faultinject.CondNFI, 9106)
	if golden.Outcome.EgoCollisions != 0 {
		t.Fatalf("T6 golden run crashed %d times", golden.Outcome.EgoCollisions)
	}
	faulty := followWith(t, "T6", faultinject.CondDelay50, 9106)
	if faulty.Outcome.EgoCollisions == 0 {
		t.Fatal("T6 under 50ms delay did not crash")
	}
}

func TestShapeCarefulSubjectSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, cond := range []faultinject.Condition{faultinject.CondDelay50, faultinject.CondLoss5} {
		res := followWith(t, "T10", cond, 42)
		if res.Outcome.EgoCollisions != 0 {
			t.Fatalf("careful T10 crashed under %v", cond)
		}
	}
}

func TestShapeSmallFaultsAreBenign(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// 5 ms delay and 2 % loss never caused crashes in the paper.
	for _, cond := range []faultinject.Condition{faultinject.CondDelay5, faultinject.CondLoss2} {
		for _, name := range []string{"T2", "T6"} {
			res := followWith(t, name, cond, 5150)
			if res.Outcome.EgoCollisions != 0 {
				t.Fatalf("%s crashed under benign %v", name, cond)
			}
		}
	}
}

func TestShapePrecisionZoneHesitation(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	prof := subject(t, "T2")
	scn := scenario.LaneChangeSlalom()
	golden, err := RunOne(RunSpec{Scenario: scn, Profile: prof, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	lossyScn := scenario.LaneChangeSlalom()
	faults := make([]faultinject.Condition, len(lossyScn.POIs))
	for i := range faults {
		faults[i] = faultinject.CondLoss5
	}
	lossy, err := RunOne(RunSpec{Scenario: lossyScn, Profile: prof, Seed: 7, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if !golden.Analysis.TaskTimeOK || !lossy.Analysis.TaskTimeOK {
		t.Fatal("task times missing")
	}
	g, f := golden.Analysis.TaskTime.Seconds(), lossy.Analysis.TaskTime.Seconds()
	if f < g*1.10 {
		t.Fatalf("faulty slalom %0.1fs not ≥10%% slower than golden %0.1fs (Fig 4 shape)", f, g)
	}
}
