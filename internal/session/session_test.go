package session

import (
	"fmt"
	"testing"
	"time"

	"teledrive/internal/bridge"
	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/geom"
	"teledrive/internal/netem"
	"teledrive/internal/scenario"
	"teledrive/internal/simclock"
	"teledrive/internal/trace"
	"teledrive/internal/transport"
	"teledrive/internal/vehicle"
	"teledrive/internal/world"
)

// buildStack wires a real bridge stack over the follow scenario.
func buildStack(t *testing.T) (*simclock.Clock, *scenario.Built, *Stack) {
	t.Helper()
	built, err := scenario.FollowVehicle().Build()
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	stack, err := NewStack(clock, built.World, built.Ego, 1, transport.Options{Name: "bridge", Reliable: true})
	if err != nil {
		t.Fatal(err)
	}
	return clock, built, stack
}

// constOperator always commands the same control.
type constOperator struct{ ctrl vehicle.Control }

func (o constOperator) Tick(time.Duration) vehicle.Control { return o.ctrl }

// newDriver builds the modelled human for a built scenario — the POI
// tests need an operator that actually tracks the route.
func newDriver(t *testing.T, clock *simclock.Clock, built *scenario.Built, stack *Stack) Operator {
	t.Helper()
	prof, ok := driver.SubjectByName("T5")
	if !ok {
		t.Fatal("subject T5 missing")
	}
	drv, err := driver.New(clock, stack.Client, driver.DefaultConfig(prof, built.Task))
	if err != nil {
		t.Fatal(err)
	}
	return drv
}

// stopAfter ends the scenario once the clock passes a deadline.
type stopAfter struct {
	clock *simclock.Clock
	at    time.Duration
}

func (s *stopAfter) OnTick(time.Duration) {}
func (s *stopAfter) Done() bool           { return s.clock.Now() >= s.at }
func (s *stopAfter) Finish(time.Duration) {}

// eventLog records spine events for order assertions.
type eventLog struct {
	NopObserver
	events []string
}

func (e *eventLog) add(s string) { e.events = append(e.events, s) }

func (e *eventLog) RunPhase(p Phase, now time.Duration) {
	e.add(fmt.Sprintf("phase:%s@%v", p, now))
}
func (e *eventLog) Condition(now time.Duration, label string) {
	e.add(fmt.Sprintf("cond:%q@%v", label, now))
}

func TestSessionValidate(t *testing.T) {
	clock, _, stack := buildStack(t)
	full := func() *Session {
		return &Session{
			Clock:         clock,
			Plant:         stack.Plant,
			Operator:      constOperator{},
			Sink:          stack.Client,
			Supervisor:    &stopAfter{clock: clock, at: time.Second},
			ControlPeriod: 20 * time.Millisecond,
			Timeout:       time.Second,
		}
	}
	if _, err := full().Run(); err != nil {
		t.Fatalf("complete session: %v", err)
	}
	breakers := map[string]func(*Session){
		"clock":    func(s *Session) { s.Clock = nil },
		"plant":    func(s *Session) { s.Plant = nil },
		"operator": func(s *Session) { s.Operator = nil },
		"sink":     func(s *Session) { s.Sink = nil },
		"sup":      func(s *Session) { s.Supervisor = nil },
		"period":   func(s *Session) { s.ControlPeriod = 0 },
		"timeout":  func(s *Session) { s.Timeout = -time.Second },
	}
	for name, brk := range breakers {
		s := full()
		brk(s)
		if _, err := s.Run(); err == nil {
			t.Errorf("%s: invalid session accepted", name)
		}
	}
}

func TestSessionRunsToSupervisorDone(t *testing.T) {
	clock, _, stack := buildStack(t)
	sess := &Session{
		Clock:         clock,
		Plant:         stack.Plant,
		Operator:      constOperator{ctrl: vehicle.Control{Throttle: 0.3}},
		Sink:          stack.Client,
		Supervisor:    &stopAfter{clock: clock, at: 2 * time.Second},
		ControlPeriod: 20 * time.Millisecond,
		Timeout:       time.Minute,
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.TimedOut {
		t.Fatalf("expected completion, got %+v", res)
	}
	// 2 s at the 20 ms physics tick.
	if res.WallTicks != 100 {
		t.Fatalf("WallTicks = %d, want 100", res.WallTicks)
	}
	if stack.Plant.Stats().ControlsApplied == 0 {
		t.Fatal("operator commands never reached the plant")
	}
}

func TestSessionTimeout(t *testing.T) {
	clock, _, stack := buildStack(t)
	never := &stopAfter{clock: clock, at: time.Hour}
	sess := &Session{
		Clock:         clock,
		Plant:         stack.Plant,
		Operator:      constOperator{},
		Sink:          stack.Client,
		Supervisor:    never,
		ControlPeriod: 20 * time.Millisecond,
		Timeout:       time.Second,
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || !res.TimedOut {
		t.Fatalf("expected timeout, got %+v", res)
	}
}

// TestSessionChainsExistingWorldCallbacks: Run takes over the world's
// collision and lane-invasion hooks to feed the spine, and must keep
// calling whatever was installed before it.
func TestSessionChainsExistingWorldCallbacks(t *testing.T) {
	clock, built, stack := buildStack(t)
	w := built.World
	var collisions, invasions int
	w.OnCollision = func(world.CollisionEvent) { collisions++ }
	w.OnLaneInvasion = func(world.LaneInvasionEvent) { invasions++ }

	// A parked car just ahead of the ego on its route: full throttle
	// with a slight steer crosses a lane line and hits it within the run.
	start, _ := built.Route.Project(built.Ego.Pose().Pos)
	rail, err := world.NewRail(built.Route, start+12, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.SpawnScripted(world.KindParkedCar, "wall", geom.V(4.7, 1.9), rail); err != nil {
		t.Fatal(err)
	}
	log := &trace.RunLog{}
	rec := trace.NewPassiveRecorder(w, built.Ego, built.Route, log)
	sess := &Session{
		Clock:         clock,
		Plant:         stack.Plant,
		Operator:      constOperator{ctrl: vehicle.Control{Throttle: 1, Steer: 0.05}},
		Sink:          stack.Client,
		Supervisor:    &stopAfter{clock: clock, at: 6 * time.Second},
		Observers:     Observers{Record(rec)},
		ControlPeriod: 20 * time.Millisecond,
		Timeout:       time.Minute,
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log.Collisions) == 0 || len(log.LaneInvasions) == 0 {
		t.Fatalf("recorder on the spine logged %d collisions and %d lane invasions, want both",
			len(log.Collisions), len(log.LaneInvasions))
	}
	if collisions != len(log.Collisions) || invasions != len(log.LaneInvasions) {
		t.Fatalf("pre-existing callbacks saw %d collisions and %d lane invasions, the spine %d and %d",
			collisions, invasions, len(log.Collisions), len(log.LaneInvasions))
	}
	// Without an active condition, events carry the NFI label.
	if log.Collisions[0].Label != "NFI" {
		t.Fatalf("label = %q", log.Collisions[0].Label)
	}
}

func TestSessionPhaseAndConditionOrder(t *testing.T) {
	clock, _, stack := buildStack(t)
	log := &eventLog{}
	sess := &Session{
		Clock:         clock,
		Plant:         stack.Plant,
		Operator:      constOperator{},
		Sink:          stack.Client,
		Supervisor:    &stopAfter{clock: clock, at: 100 * time.Millisecond},
		Observers:     Observers{log},
		ControlPeriod: 20 * time.Millisecond,
		Timeout:       time.Second,
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"phase:wire@0s",
		"phase:run@0s",
		`cond:""@100ms`, // final span close at teardown
		"phase:teardown@100ms",
	}
	if len(log.events) != len(want) {
		t.Fatalf("events = %q, want %q", log.events, want)
	}
	for i, w := range want {
		if log.events[i] != w {
			t.Fatalf("event[%d] = %q, want %q", i, log.events[i], w)
		}
	}
}

func TestPOISupervisorInjectsPerPOI(t *testing.T) {
	clock, built, stack := buildStack(t)
	scn := scenario.FollowVehicle()
	inj, err := faultinject.NewInjector(stack.Links, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	log := &trace.RunLog{}
	rec := trace.NewPassiveRecorder(built.World, built.Ego, built.Route, log)
	spine := Observers{Record(rec)}
	inj.OnChange = spine.Fault
	assign := make([]faultinject.Condition, len(scn.POIs))
	for i := range assign {
		assign[i] = faultinject.CondDelay50
	}
	sup := NewPOISupervisor(scn, built.Ego, built.Route, inj, assign, spine)

	sess := &Session{
		Clock:         clock,
		Plant:         stack.Plant,
		Operator:      newDriver(t, clock, built, stack),
		Sink:          stack.Client,
		Supervisor:    sup,
		Observers:     spine,
		ControlPeriod: 20 * time.Millisecond,
		Timeout:       scn.Timeout,
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete: %+v", res)
	}
	if sup.Injected() != len(scn.POIs) {
		t.Fatalf("Injected = %d, want one per POI (%d)", sup.Injected(), len(scn.POIs))
	}
	if sup.FailedInjections() != 0 {
		t.Fatalf("FailedInjections = %d, want 0", sup.FailedInjections())
	}
	if sup.FinalStation() < scn.EndStation {
		t.Fatalf("FinalStation %.1f short of end station %.1f", sup.FinalStation(), scn.EndStation)
	}
	// Every injection leaves add+delete fault records and a closed span.
	if len(log.Faults) == 0 || len(log.ConditionSpans) != len(scn.POIs) {
		t.Fatalf("faults=%d spans=%d, want >0 and %d", len(log.Faults), len(log.ConditionSpans), len(scn.POIs))
	}
	for _, span := range log.ConditionSpans {
		if span.To == 0 {
			t.Fatalf("span %q left open", span.Label)
		}
	}
}

func TestPOISupervisorCountsFailedInjections(t *testing.T) {
	clock, built, stack := buildStack(t)
	scn := scenario.FollowVehicle()
	inj, err := faultinject.NewInjector(stack.Links, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	log := &trace.RunLog{}
	rec := trace.NewPassiveRecorder(built.World, built.Ego, built.Route, log)
	spine := Observers{Record(rec)}
	inj.OnChange = spine.Fault
	// An out-of-range condition value: Inject must refuse it.
	assign := make([]faultinject.Condition, len(scn.POIs))
	assign[0] = faultinject.Condition(99)
	sup := NewPOISupervisor(scn, built.Ego, built.Route, inj, assign, spine)

	sess := &Session{
		Clock:         clock,
		Plant:         stack.Plant,
		Operator:      newDriver(t, clock, built, stack),
		Sink:          stack.Client,
		Supervisor:    sup,
		Observers:     spine,
		ControlPeriod: 20 * time.Millisecond,
		Timeout:       scn.Timeout,
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	if sup.FailedInjections() != 1 {
		t.Fatalf("FailedInjections = %d, want 1", sup.FailedInjections())
	}
	if sup.Injected() != 0 {
		t.Fatalf("Injected = %d, want 0", sup.Injected())
	}
	found := false
	for _, f := range log.Faults {
		if f.Action == "error" {
			found = found || f.Label == "cond(99)" && f.Desc == "faultinject: inject unknown condition 99"
		}
	}
	if !found {
		t.Fatalf("failed injection left no action=error fault record labelled cond(99): %+v", log.Faults)
	}
}

// poiHarness is a supervisor over the follow scenario's real links
// whose ego the test places by route station, one OnTick per move.
type poiHarness struct {
	sup   *POISupervisor
	inj   *faultinject.Injector
	down  *netem.Link
	log   *trace.RunLog
	scn   *scenario.Scenario
	built *scenario.Built
	now   time.Duration
}

func newPOIHarness(t *testing.T, assign []faultinject.Condition, rules []*faultinject.RuleAssignment) *poiHarness {
	t.Helper()
	clock, built, stack := buildStack(t)
	scn := scenario.FollowVehicle()
	inj, err := faultinject.NewInjector(stack.Links, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	log := &trace.RunLog{}
	spine := Observers{Record(trace.NewPassiveRecorder(built.World, built.Ego, built.Route, log))}
	inj.OnChange = spine.Fault
	sup := NewPOISupervisor(scn, built.Ego, built.Route, inj, assign, spine)
	sup.SetRuleAssignments(rules)
	return &poiHarness{sup: sup, inj: inj, down: stack.Links.Down, log: log, scn: scn, built: built}
}

// driveTo places the ego at route station st and ticks the supervisor.
func (h *poiHarness) driveTo(st float64) {
	h.now += time.Second
	h.built.Ego.Plant.SetState(vehicle.State{Pose: h.built.Route.PoseAt(st)})
	h.sup.OnTick(h.now)
}

// mid is the middle station of POI i; gap lies between POIs i and i+1.
func (h *poiHarness) mid(i int) float64 { return (h.scn.POIs[i].From + h.scn.POIs[i].To) / 2 }
func (h *poiHarness) gap(i int) float64 { return (h.scn.POIs[i].To + h.scn.POIs[i+1].From) / 2 }

func TestPOISupervisorRuleOverrideWins(t *testing.T) {
	assign := make([]faultinject.Condition, len(scenario.FollowVehicle().POIs))
	assign[0] = faultinject.CondDelay50
	assign[1] = faultinject.CondLoss2
	rules := make([]*faultinject.RuleAssignment, len(assign))
	rules[0] = &faultinject.RuleAssignment{Rule: netem.Rule{Delay: 7 * time.Millisecond}, Label: "d7ms"}
	h := newPOIHarness(t, assign, rules)

	h.driveTo(h.mid(0))
	if r, ok := h.down.Rule(); !ok || r.Delay != 7*time.Millisecond {
		t.Fatalf("POI 0 rule = %+v (installed %v), want the 7 ms override", r, ok)
	}
	h.driveTo(h.gap(0))
	if h.inj.Active() {
		t.Fatal("override not cleared on POI exit")
	}
	// POI 1 has no override: its condition applies.
	h.driveTo(h.mid(1))
	if r, ok := h.down.Rule(); !ok || r.Loss != 0.02 {
		t.Fatalf("POI 1 rule = %+v (installed %v), want the 2%% condition", r, ok)
	}
	h.sup.Finish(h.now)

	if h.sup.Injected() != 2 || h.sup.FailedInjections() != 0 {
		t.Fatalf("injected=%d failed=%d, want 2/0", h.sup.Injected(), h.sup.FailedInjections())
	}
	var spans []string
	for _, sp := range h.log.ConditionSpans {
		spans = append(spans, sp.Label)
	}
	if fmt.Sprint(spans) != "[d7ms 2%]" {
		t.Fatalf("condition spans = %q", spans)
	}
	for _, f := range h.log.Faults {
		if f.Label == "50ms" {
			t.Fatalf("overridden condition reached the links: %+v", f)
		}
	}
}

func TestPOISupervisorInvalidRuleFailsOnce(t *testing.T) {
	rules := make([]*faultinject.RuleAssignment, len(scenario.FollowVehicle().POIs))
	rules[0] = &faultinject.RuleAssignment{Rule: netem.Rule{Delay: 7 * time.Millisecond}}
	h := newPOIHarness(t, nil, rules)

	h.driveTo(h.mid(0))
	h.driveTo(h.gap(0))
	h.driveTo(h.mid(0)) // re-entry: the POI has already fired
	h.sup.Finish(h.now)

	if h.sup.FailedInjections() != 1 || h.sup.Injected() != 0 {
		t.Fatalf("failed=%d injected=%d, want 1/0", h.sup.FailedInjections(), h.sup.Injected())
	}
	if len(h.log.Faults) != 1 || h.log.Faults[0].Action != "error" {
		t.Fatalf("fault records = %+v, want one action=error", h.log.Faults)
	}
	if len(h.log.ConditionSpans) != 0 {
		t.Fatalf("refused rule opened spans %+v", h.log.ConditionSpans)
	}
	if h.inj.Active() {
		t.Fatal("refused rule left the injector active")
	}
}

func TestPOISupervisorNilInjector(t *testing.T) {
	_, built, _ := buildStack(t)
	scn := scenario.FollowVehicle()
	assign := make([]faultinject.Condition, len(scn.POIs))
	for i := range assign {
		assign[i] = faultinject.CondLoss5
	}
	sup := NewPOISupervisor(scn, built.Ego, built.Route, nil, assign, nil)
	// Must not panic, must not inject, and end detection must still work.
	sup.OnTick(0)
	if sup.Injected() != 0 || sup.Done() {
		t.Fatalf("nil-injector supervisor misbehaved: injected=%d done=%v", sup.Injected(), sup.Done())
	}
	sup.Finish(time.Second)
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseBuild: "build", PhaseWire: "wire", PhaseRun: "run",
		PhaseTeardown: "teardown", Phase(42): "phase(?)",
	} {
		if got := p.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestObserversBroadcastOrderAndNil(t *testing.T) {
	var nilSpine Observers
	nilSpine.Tick(0) // nil spine must be silent, not panic
	nilSpine.Fault(0, "l", "a", "d", "lb")

	a, b := &eventLog{}, &eventLog{}
	spine := Observers{a, b}
	spine.RunPhase(PhaseRun, time.Second)
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Fatalf("broadcast missed an observer: %d/%d", len(a.events), len(b.events))
	}
}

// countObserver verifies spine hot-path methods stay allocation-free.
type countObserver struct {
	NopObserver
	ticks  uint64
	frames uint64
}

func (c *countObserver) Tick(time.Duration) { c.ticks++ }
func (c *countObserver) Frame(time.Duration, uint64, time.Duration) {
	c.frames++
}

func TestSpineBroadcastZeroAlloc(t *testing.T) {
	spine := Observers{&countObserver{}, &countObserver{}, NopObserver{}}
	if allocs := testing.AllocsPerRun(200, func() {
		spine.Tick(time.Second)
		spine.Frame(time.Second, 7, time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("spine broadcast allocates %.1f allocs/op, want 0", allocs)
	}
}

// Compile-time checks: the stock parts satisfy the session interfaces.
var (
	_ Plant       = (*bridge.Server)(nil)
	_ ControlSink = (*bridge.Client)(nil)
	_ Supervisor  = (*POISupervisor)(nil)
	_ Observer    = Record(nil)
)
