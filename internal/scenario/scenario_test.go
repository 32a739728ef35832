package scenario

import (
	"math"
	"testing"
	"time"

	"teledrive/internal/world"
)

func TestLibraryScenariosValidate(t *testing.T) {
	for _, s := range append(TestScenarios(), Training()) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestLibraryScenariosBuild(t *testing.T) {
	for _, s := range append(TestScenarios(), Training()) {
		b, err := s.Build()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if b.Ego == nil || b.Ego.Kind != world.KindEgo {
			t.Fatalf("%s: ego = %+v", s.Name, b.Ego)
		}
		if b.Route.Length() < s.EndStation {
			t.Fatalf("%s: route length %v shorter than end station %v", s.Name, b.Route.Length(), s.EndStation)
		}
		if b.Task.Route != b.Route {
			t.Fatalf("%s: task route mismatch", s.Name)
		}
		// POIs lie within the route.
		for _, p := range s.POIs {
			if p.From < 0 || p.To > b.Route.Length() {
				t.Fatalf("%s: POI %s outside route", s.Name, p.Label)
			}
		}
	}
}

func TestBuildProducesFreshWorlds(t *testing.T) {
	s := FollowVehicle()
	a, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.World == b.World || a.Ego == b.Ego {
		t.Fatal("Build returned shared state")
	}
	// Stepping one world must not move the other.
	a.World.Step(0.02)
	if b.World.Frame() != 0 {
		t.Fatal("worlds share stepping state")
	}
}

func TestFollowVehicleActors(t *testing.T) {
	b, err := FollowVehicle().Build()
	if err != nil {
		t.Fatal(err)
	}
	var cars, cyclists int
	for _, a := range b.World.Actors() {
		switch a.Kind {
		case world.KindCar:
			cars++
		case world.KindCyclist:
			cyclists++
		}
	}
	if cars != 1 {
		t.Fatalf("lead cars = %d", cars)
	}
	if cyclists != 2 {
		t.Fatalf("cyclists = %d, want the paper's two false positives", cyclists)
	}
	// Lead starts ahead of the ego in the same lane.
	gap, lead := b.World.GapAhead(b.Ego, 3.0, 200)
	if lead == nil || lead.Name != "lead" {
		t.Fatalf("lead not ahead: %v", lead)
	}
	if gap < 20 || gap > 60 {
		t.Fatalf("initial gap = %v", gap)
	}
}

func TestSlalomRouteAvoidsParkedCars(t *testing.T) {
	s := LaneChangeSlalom()
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	// At every parked car's position, the route must be laterally clear
	// of it (at least ~2.5 m between route center and car center).
	for _, a := range b.World.Actors() {
		if a.Kind != world.KindParkedCar {
			continue
		}
		pos := a.Pose().Pos
		_, lat := b.Route.Project(pos)
		if math.Abs(lat) < 2.5 {
			t.Fatalf("route passes %.2f m from parked car %s", lat, a.Name)
		}
	}
}

func TestSlalomIsASlalom(t *testing.T) {
	// The route must visit lane d2 (offset ≈3.5) twice with a return to
	// d1 in between.
	b, err := LaneChangeSlalom().Build()
	if err != nil {
		t.Fatal(err)
	}
	m := world.Town5()
	d1, _ := m.LaneByID(world.LaneDrive1)
	var seq []int // 1 = on d1, 2 = on d2
	for s := 0.0; s < 600; s += 10 {
		p := b.Route.PointAt(s)
		_, lat := d1.Center.Project(p)
		cur := 1
		if lat > 1.75 {
			cur = 2
		}
		if len(seq) == 0 || seq[len(seq)-1] != cur {
			seq = append(seq, cur)
		}
	}
	// Expect at least 1,2,1,2,1.
	if len(seq) < 5 {
		t.Fatalf("lane sequence %v is not a slalom", seq)
	}
}

func TestOvertakePassesSlowVehicle(t *testing.T) {
	s := Overtake()
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Step the world until the slow vehicle is in the passing zone and
	// verify the route is laterally clear of it there.
	for i := 0; i < 50*30; i++ {
		b.World.Step(0.02)
		for _, a := range b.World.Actors() {
			if a.Name != "slow-vehicle" {
				continue
			}
			pos := a.Pose().Pos
			st, lat := b.Route.Project(pos)
			if st > 360 && st < 460 && math.Abs(lat) < 2.5 {
				t.Fatalf("overtake route passes %.2f m from the slow vehicle at station %.0f", lat, st)
			}
		}
	}
}

func TestTrainingHasNoTrafficOrPOIs(t *testing.T) {
	s := Training()
	b, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.World.Actors()) != 1 {
		t.Fatalf("training world has traffic: %d actors", len(b.World.Actors()))
	}
	if len(s.POIs) != 0 {
		t.Fatal("training scenario has POIs")
	}
}

func TestTotalPOIsSupportsPaperFaultCounts(t *testing.T) {
	// Table II's largest per-subject fault count is 14; a full test run
	// must offer at least that many injection points.
	got := 0
	for _, s := range TestScenarios() {
		got += len(s.POIs)
	}
	if got < 14 {
		t.Fatalf("total POIs = %d, want ≥ 14", got)
	}
}

func TestPOIsDoNotOverlapWithinScenario(t *testing.T) {
	for _, s := range TestScenarios() {
		for i := 1; i < len(s.POIs); i++ {
			if s.POIs[i].From < s.POIs[i-1].To {
				t.Errorf("%s: POIs %s and %s overlap", s.Name, s.POIs[i-1].Label, s.POIs[i].Label)
			}
		}
	}
}

func TestScenarioValidationErrors(t *testing.T) {
	good := FollowVehicle()
	bad := []func(*Scenario){
		func(s *Scenario) { s.Name = "" },
		func(s *Scenario) { s.MapBuilder = nil },
		func(s *Scenario) { s.RouteOffsets = nil },
		func(s *Scenario) { s.LaneWidth = 0 },
		func(s *Scenario) { s.EndStation = 0 },
		func(s *Scenario) { s.Timeout = 0 },
		func(s *Scenario) { s.POIs = []POI{{Label: "x", From: 10, To: 10}} },
	}
	for i, mutate := range bad {
		s := FollowVehicle()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsUnknownLane(t *testing.T) {
	s := FollowVehicle()
	s.Actors[0].LaneID = "no-such-lane"
	if _, err := s.Build(); err == nil {
		t.Fatal("unknown lane accepted")
	}
}

func TestTaskSegmentsWithinPOIRange(t *testing.T) {
	for _, s := range TestScenarios() {
		if s.TaskSegment[1] <= s.TaskSegment[0] {
			t.Errorf("%s: task segment %v empty", s.Name, s.TaskSegment)
		}
		if s.TaskSegment[1] > s.EndStation {
			t.Errorf("%s: task segment beyond end station", s.Name)
		}
	}
}

func TestScenarioTimeoutsReasonable(t *testing.T) {
	for _, s := range append(TestScenarios(), Training()) {
		if s.Timeout < time.Minute || s.Timeout > 10*time.Minute {
			t.Errorf("%s: timeout %v outside [1m, 10m]", s.Name, s.Timeout)
		}
	}
}

func TestNightScenario(t *testing.T) {
	s := FollowVehicleNight()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Weather != "clear-night" || s.Name == FollowVehicle().Name {
		t.Fatalf("night scenario misconfigured: %s / %s", s.Name, s.Weather)
	}
	if _, err := s.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestByNameCoversLibrary(t *testing.T) {
	all := append(TestScenarios(), Training(), FollowVehicleNight())
	for _, want := range all {
		got, ok := ByName(want.Name)
		if !ok {
			t.Errorf("ByName(%q) not found", want.Name)
			continue
		}
		if got.Name != want.Name {
			t.Errorf("ByName(%q) returned %q", want.Name, got.Name)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("ByName(%q): %v", want.Name, err)
		}
	}
	if _, ok := ByName("no-such-drive"); ok {
		t.Fatal("unknown name resolved")
	}
	// Fresh instance per call: scenarios hold single-use worlds.
	a, _ := ByName("training")
	b, _ := ByName("training")
	if a == b {
		t.Fatal("ByName returned a shared instance")
	}
}
