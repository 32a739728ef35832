package session

import (
	"time"

	"teledrive/internal/faultinject"
	"teledrive/internal/geom"
	"teledrive/internal/scenario"
	"teledrive/internal/world"
)

// POISupervisor implements the paper's scenario supervision (§V-E):
// it tracks the ego's route station every physics tick, injects the
// POI's fault when the ego enters a point of interest, clears it on
// exit, and ends the scenario at the end station. A POI's fault is one
// labelled rule — its rule override, else its condition's assignment —
// so paper conditions and search perturbations take the same path.
// Each POI fires at most once (one fault per situation of interest).
//
// A nil injector (a link without a fault surface) disables injection;
// station tracking and end detection still run.
type POISupervisor struct {
	scn    *scenario.Scenario
	ego    *world.Actor
	proj   *geom.Projector
	inj    *faultinject.Injector
	assign []faultinject.Condition
	rules  []*faultinject.RuleAssignment
	spine  Observers

	activePOI int
	fired     []bool
	done      bool

	station  float64
	injected int
	failed   int
}

// NewPOISupervisor builds the supervisor for one run. assign maps each
// scenario POI to the condition injected there (nil = golden run); inj
// may be nil when the link exposes no fault surface. spine receives
// the supervisor's condition spans and failed-injection records.
func NewPOISupervisor(scn *scenario.Scenario, ego *world.Actor, route *geom.Path, inj *faultinject.Injector, assign []faultinject.Condition, spine Observers) *POISupervisor {
	return &POISupervisor{
		scn:       scn,
		ego:       ego,
		proj:      geom.NewProjector(route),
		inj:       inj,
		assign:    assign,
		spine:     spine,
		activePOI: -1,
		fired:     make([]bool, len(scn.POIs)),
	}
}

// SetRuleAssignments installs per-POI netem-rule overrides: a non-nil
// entry replaces the POI's canonical condition with an arbitrary rule
// (the adversarial search's perturbed fault space); nil entries fall
// back to the condition assignment. rules must be nil or one entry per
// scenario POI.
func (s *POISupervisor) SetRuleAssignments(rules []*faultinject.RuleAssignment) {
	s.rules = rules
}

// faultAt resolves POI i to the one labelled rule injected there: the
// rule override when set, else the condition's assignment. ok is false
// when there is nothing to inject (no assignment, or NFI); err is a
// condition the injector would refuse, its label still in a.
func (s *POISupervisor) faultAt(i int) (a faultinject.RuleAssignment, ok bool, err error) {
	if i < len(s.rules) && s.rules[i] != nil {
		return *s.rules[i], true, nil
	}
	if s.assign == nil || s.assign[i] == faultinject.CondNFI {
		return a, false, nil
	}
	a, err = s.assign[i].Assignment()
	return a, true, err
}

// OnTick implements Supervisor: POI transitions and end detection.
func (s *POISupervisor) OnTick(now time.Duration) {
	st, _ := s.proj.Project(s.ego.Pose().Pos)
	s.station = st

	if s.inj != nil {
		cur := -1
		for i, poi := range s.scn.POIs {
			if st >= poi.From && st < poi.To {
				cur = i
				break
			}
		}
		if cur != s.activePOI {
			if s.activePOI >= 0 && s.inj.Active() {
				s.inj.Clear()
				s.spine.Condition(now, "")
			}
			s.activePOI = cur
			if cur >= 0 && !s.fired[cur] {
				if a, ok, err := s.faultAt(cur); ok {
					s.fired[cur] = true
					if err == nil {
						err = s.inj.Inject(a)
					}
					if err != nil {
						// A refused injection is a test-execution fault,
						// not a silent no-op: log it and count it so the
						// outcome can flag the cell invalid.
						s.failed++
						s.spine.Fault(now, "both", "error", err.Error(), a.Label)
					} else {
						s.spine.Condition(now, a.Label)
						s.injected++
					}
				}
			}
		}
	}

	if st >= s.scn.EndStation {
		s.done = true
	}
}

// Done implements Supervisor.
func (s *POISupervisor) Done() bool { return s.done }

// Finish implements Supervisor: clears any fault still injected at run
// end and closes its condition span.
func (s *POISupervisor) Finish(now time.Duration) {
	if s.inj != nil && s.inj.Active() {
		s.inj.Clear()
		s.spine.Condition(now, "")
	}
}

// Injected counts POIs that actually saw a fault injected.
func (s *POISupervisor) Injected() int { return s.injected }

// FailedInjections counts injections refused by the injector.
func (s *POISupervisor) FailedInjections() int { return s.failed }

// FinalStation is the ego's route station at the last tick.
func (s *POISupervisor) FinalStation() float64 { return s.station }
