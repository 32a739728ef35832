package scenario

import (
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/world"
)

// The scenario library. Station numbers refer to the Town 5 reference
// line (≈1.6 km: straight to 400, right sweep to ≈573, straight to
// ≈873, left sweep to ≈1061, straight to the end).

// FollowVehicle is the paper's "following a vehicle" scenario: a lead
// car drives the right lane with speed changes and two full stops; the
// ego must keep a safe gap through straights and curves. The two false-
// positive cyclists (§V-B) ride the shoulder.
func FollowVehicle() *Scenario {
	return &Scenario{
		Name:       "follow-vehicle",
		MapBuilder: world.Town5,
		RouteOffsets: []world.OffsetSegment{
			{FromStation: 0, Offset: 0}, // stay on d1 the whole way
		},
		BlendLen:        30,
		LaneWidth:       world.Town5LaneWidth,
		EgoStartStation: 10,
		SpeedPlan: []driver.SpeedInstruction{
			{FromStation: 0, Speed: 13},
		},
		EndStation: 1380,
		Timeout:    6 * time.Minute,
		Weather:    "clear-day",
		Actors: []ActorSpec{
			{
				Kind: world.KindCar, Name: "lead", Extent: sedanExtent(),
				LaneID: world.LaneDrive1, StartStation: 55,
				Profile: []world.ProfilePoint{
					{Station: 0, Speed: 9},
					{Station: 330, Speed: 6},  // slows before the right sweep
					{Station: 600, Speed: 9},  // speeds up on the straight
					{Station: 900, Speed: 6},  // slows through the left sweep
					{Station: 1100, Speed: 9}, // final straight
				},
				Stops: []world.Stop{
					// Abrupt stops (a pedestrian steps out, a light
					// changes): the lead brakes at its MaxDecel. Each sits
					// deep enough into its section that the ego has
					// settled into steady-state following by the event.
					{Station: 305, Hold: 4},  // on the first straight
					{Station: 760, Hold: 5},  // before the left sweep
					{Station: 1200, Hold: 4}, // on the final straight
				},
				MaxAccel: 2.5,
				MaxDecel: 7.2,
			},
			{
				Kind: world.KindCyclist, Name: "cyclist-1", Extent: cyclistExtent(),
				LaneID: world.LaneShoulder, StartStation: 480,
				Profile:  []world.ProfilePoint{{Station: 0, Speed: 4}},
				MaxAccel: 1,
			},
			{
				Kind: world.KindCyclist, Name: "cyclist-2", Extent: cyclistExtent(),
				LaneID: world.LaneShoulder, StartStation: 1150,
				Profile:  []world.ProfilePoint{{Station: 0, Speed: 4}},
				MaxAccel: 1,
			},
		},
		POIs: []POI{
			{Label: "approach", From: 80, To: 200},
			{Label: "stop-and-go-1", From: 220, To: 330, Weight: 2},
			{Label: "curve-follow", From: 400, To: 560},
			{Label: "straight-follow", From: 600, To: 720},
			{Label: "stop-and-go-2", From: 740, To: 860, Weight: 2},
			{Label: "left-sweep", From: 900, To: 1040},
			{Label: "final-straight", From: 1090, To: 1230, Weight: 2},
		},
		TaskSegment: [2]float64{220, 400},
	}
}

// LaneChangeSlalom is the "lane change operation due to a stationary
// vehicle" scenario: three parked cars force a slalom between the two
// same-direction lanes.
func LaneChangeSlalom() *Scenario {
	return &Scenario{
		Name:       "lane-change-slalom",
		MapBuilder: world.Town5,
		RouteOffsets: []world.OffsetSegment{
			{FromStation: 0, Offset: 0},
			{FromStation: 260, Offset: world.Town5LaneWidth}, // out around car 1 (d1→d2)
			{FromStation: 340, Offset: 0},                    // back to d1
			{FromStation: 420, Offset: world.Town5LaneWidth}, // out around car 3
			{FromStation: 500, Offset: 0},                    // back to d1
		},
		BlendLen:        35,
		LaneWidth:       world.Town5LaneWidth,
		EgoStartStation: 10,
		SpeedPlan: []driver.SpeedInstruction{
			{FromStation: 0, Speed: 12},
			{FromStation: 220, Speed: 9}, // instructed to slow through the slalom
			{FromStation: 540, Speed: 12},
		},
		EndStation: 700,
		Timeout:    4 * time.Minute,
		Weather:    "clear-day",
		Actors: []ActorSpec{
			{
				Kind: world.KindParkedCar, Name: "parked-1", Extent: sedanExtent(),
				LaneID: world.LaneDrive1, StartStation: 300,
			},
			{
				Kind: world.KindParkedCar, Name: "parked-2", Extent: sedanExtent(),
				LaneID: world.LaneDrive2, StartStation: 380,
			},
			{
				Kind: world.KindParkedCar, Name: "parked-3", Extent: sedanExtent(),
				LaneID: world.LaneDrive1, StartStation: 460,
			},
			{
				Kind: world.KindCyclist, Name: "cyclist", Extent: cyclistExtent(),
				LaneID: world.LaneShoulder, StartStation: 560,
				Profile:  []world.ProfilePoint{{Station: 0, Speed: 4}},
				MaxAccel: 1,
			},
		},
		POIs: []POI{
			{Label: "slalom-entry", From: 230, To: 330},
			{Label: "slalom-mid", From: 350, To: 430},
			{Label: "slalom-exit", From: 440, To: 540},
			{Label: "post-slalom", From: 560, To: 660},
		},
		// Fig 4's "three vehicles" lane-change segment.
		TaskSegment:    [2]float64{240, 520},
		PrecisionZones: [][2]float64{{245, 515}},
	}
}

// Overtake is the overtaking scenario: a slow vehicle on the right lane
// is passed via the left lane.
func Overtake() *Scenario {
	return &Scenario{
		Name:       "overtake",
		MapBuilder: world.Town5,
		RouteOffsets: []world.OffsetSegment{
			{FromStation: 0, Offset: 0},
			{FromStation: 300, Offset: world.Town5LaneWidth}, // pull out
			{FromStation: 520, Offset: 0},                    // merge back
		},
		BlendLen:        40,
		LaneWidth:       world.Town5LaneWidth,
		EgoStartStation: 10,
		SpeedPlan: []driver.SpeedInstruction{
			{FromStation: 0, Speed: 13},
		},
		EndStation: 760,
		Timeout:    4 * time.Minute,
		Weather:    "clear-day",
		Actors: []ActorSpec{
			{
				Kind: world.KindCar, Name: "slow-vehicle", Extent: sedanExtent(),
				LaneID: world.LaneDrive1, StartStation: 200,
				Profile:  []world.ProfilePoint{{Station: 0, Speed: 4.5}},
				MaxAccel: 2,
			},
		},
		POIs: []POI{
			{Label: "pull-out", From: 230, To: 360},
			{Label: "pass", From: 370, To: 480},
			{Label: "merge-back", From: 490, To: 620},
		},
		TaskSegment:    [2]float64{260, 560},
		PrecisionZones: [][2]float64{{290, 540}},
	}
}

// Training is the §V-E1 free drive in an empty town to get familiar
// with the driving station. No traffic, no POIs.
func Training() *Scenario {
	return &Scenario{
		Name:       "training",
		MapBuilder: world.TrainingTown,
		RouteOffsets: []world.OffsetSegment{
			{FromStation: 0, Offset: 0},
		},
		BlendLen:        30,
		LaneWidth:       world.Town5LaneWidth,
		EgoStartStation: 5,
		SpeedPlan: []driver.SpeedInstruction{
			{FromStation: 0, Speed: 10},
		},
		EndStation: 860, // most of the loop: 3–5 minutes at 8–10 m/s
		Timeout:    5 * time.Minute,
		Weather:    "clear-day",
	}
}

// FollowVehicleNight is the follow-vehicle scenario under the night
// condition of the paper's operational domain (§V-B: "day and night
// time conditions"): the same script with the camera range reduced to
// headlight reach by the night weather meta-command.
func FollowVehicleNight() *Scenario {
	s := FollowVehicle()
	s.Name = "follow-vehicle-night"
	s.Weather = "clear-night"
	return s
}

// ByName returns a fresh instance of the library scenario with the
// given name — the lookup remote stations and hub join requests use to
// pick a drive by wire-friendly identifier. Scenarios hold single-use
// worlds, so every call builds anew.
func ByName(name string) (*Scenario, bool) {
	switch name {
	case "follow-vehicle":
		return FollowVehicle(), true
	case "follow-vehicle-night":
		return FollowVehicleNight(), true
	case "lane-change-slalom":
		return LaneChangeSlalom(), true
	case "overtake":
		return Overtake(), true
	case "training":
		return Training(), true
	default:
		return nil, false
	}
}

// TestScenarios returns the scenarios of a §V-E2 test run, in driving
// order.
func TestScenarios() []*Scenario {
	return []*Scenario{FollowVehicle(), LaneChangeSlalom(), Overtake()}
}
