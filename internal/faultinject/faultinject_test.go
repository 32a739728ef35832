package faultinject

import (
	"testing"
	"time"

	"teledrive/internal/netem"
	"teledrive/internal/simclock"
)

func TestConditionLabels(t *testing.T) {
	want := map[Condition]string{
		CondNFI: "NFI", CondDelay5: "5ms", CondDelay25: "25ms",
		CondDelay50: "50ms", CondLoss2: "2%", CondLoss5: "5%",
	}
	for c, label := range want {
		if got := c.String(); got != label {
			t.Errorf("%d.String() = %q, want %q", c, got, label)
		}
		back, ok := ConditionByLabel(label)
		if !ok || back != c {
			t.Errorf("ConditionByLabel(%q) = %v, %v", label, back, ok)
		}
	}
	if _, ok := ConditionByLabel("77ms"); ok {
		t.Fatal("bogus label parsed")
	}
	if Condition(99).String() == "" {
		t.Fatal("unknown condition should render")
	}
}

func TestConditionRules(t *testing.T) {
	if r := CondDelay50.Rule(); r.Delay != 50*time.Millisecond || r.Loss != 0 {
		t.Fatalf("50ms rule = %+v", r)
	}
	if r := CondLoss5.Rule(); r.Loss != 0.05 || r.Delay != 0 {
		t.Fatalf("5%% rule = %+v", r)
	}
	if r := CondNFI.Rule(); r != (netem.Rule{}) {
		t.Fatalf("NFI rule = %+v", r)
	}
}

func TestConditionSets(t *testing.T) {
	if got := len(FaultConditions()); got != 5 {
		t.Fatalf("fault conditions = %d, want 5", got)
	}
	all := AllConditions()
	if len(all) != 6 || all[0] != CondNFI {
		t.Fatalf("all conditions = %v", all)
	}
}

// assignment is c's labelled rule; c must be a defined condition.
func assignment(t *testing.T, c Condition) RuleAssignment {
	t.Helper()
	a, err := c.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConditionAssignment(t *testing.T) {
	for _, c := range AllConditions() {
		a := assignment(t, c)
		if a.Label != c.String() || a.Rule != c.Rule() {
			t.Errorf("%v.Assignment() = %+v", c, a)
		}
	}
	a, err := Condition(99).Assignment()
	if err == nil || err.Error() != "faultinject: inject unknown condition 99" {
		t.Fatalf("unknown condition error = %v", err)
	}
	if a.Label != "cond(99)" {
		t.Fatalf("unknown condition label = %q", a.Label)
	}
	if Condition(-1).Valid() || Condition(6).Valid() {
		t.Fatal("out-of-range condition reported valid")
	}
}

func TestInjectRejectsInvalidAssignment(t *testing.T) {
	clk := simclock.New()
	links := netem.NewDuplex(clk, 1, func(netem.Packet) {}, func(netem.Packet) {})
	inj, _ := NewInjector(links, clk.Now)
	for _, a := range []RuleAssignment{
		{Rule: netem.Rule{Delay: 10 * time.Millisecond}},
		{Rule: netem.Rule{Loss: 2}, Label: "bad-loss"},
	} {
		if err := inj.Inject(a); err == nil {
			t.Fatalf("%+v accepted", a)
		}
		if inj.Active() {
			t.Fatalf("%+v left the injector active", a)
		}
		if _, ok := links.Down.Rule(); ok {
			t.Fatalf("%+v installed a rule", a)
		}
	}
}

func TestInjectorAppliesBidirectionally(t *testing.T) {
	clk := simclock.New()
	links := netem.NewDuplex(clk, 1, func(netem.Packet) {}, func(netem.Packet) {})
	inj, err := NewInjector(links, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Inject(assignment(t, CondDelay25)); err != nil {
		t.Fatal(err)
	}
	if !inj.Active() {
		t.Fatal("not active after inject")
	}
	down, ok1 := links.Down.Rule()
	up, ok2 := links.Up.Rule()
	if !ok1 || !ok2 {
		t.Fatal("rules not installed on both links")
	}
	if down.Delay != 25*time.Millisecond || up.Delay != 25*time.Millisecond {
		t.Fatalf("rules = %+v / %+v", down, up)
	}
	inj.Clear()
	if inj.Active() {
		t.Fatal("not cleared")
	}
	if _, ok := links.Down.Rule(); ok {
		t.Fatal("down rule survived clear")
	}
}

func TestInjectorLogsChanges(t *testing.T) {
	clk := simclock.New()
	links := netem.NewDuplex(clk, 1, func(netem.Packet) {}, func(netem.Packet) {})
	inj, _ := NewInjector(links, clk.Now)
	type change struct{ link, action, label string }
	var log []change
	inj.OnChange = func(now time.Duration, link, action, desc, label string) {
		log = append(log, change{link, action, label})
	}
	inj.Inject(assignment(t, CondLoss5))
	inj.Clear()
	// A search rule labels its adds and its Clear's deletes.
	inj.Inject(RuleAssignment{Rule: netem.Rule{Delay: 37 * time.Millisecond}, Label: "d37ms"})
	inj.Clear()
	// A rule applied around the injector is logged under NFI.
	links.ApplyBoth(netem.Rule{Delay: time.Millisecond})
	want := []change{
		{"downlink", "add", "5%"}, {"uplink", "add", "5%"},
		{"downlink", "delete", "5%"}, {"uplink", "delete", "5%"},
		{"downlink", "add", "d37ms"}, {"uplink", "add", "d37ms"},
		{"downlink", "delete", "d37ms"}, {"uplink", "delete", "d37ms"},
		{"downlink", "add", "NFI"}, {"uplink", "add", "NFI"},
	}
	if len(log) != len(want) {
		t.Fatalf("log = %+v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %+v, want %+v", i, log[i], want[i])
		}
	}
}

func TestInjectorSwitchesConditions(t *testing.T) {
	clk := simclock.New()
	links := netem.NewDuplex(clk, 1, func(netem.Packet) {}, func(netem.Packet) {})
	inj, _ := NewInjector(links, clk.Now)
	inj.Inject(assignment(t, CondDelay5))
	inj.Inject(assignment(t, CondLoss2))
	down, _ := links.Down.Rule()
	if down.Loss != 0.02 || down.Delay != 0 {
		t.Fatalf("rule after switch = %+v", down)
	}
	if !inj.Active() {
		t.Fatal("not active after switch")
	}
	// Double clear is a no-op.
	inj.Clear()
	inj.Clear()
}

func TestNewInjectorValidation(t *testing.T) {
	if _, err := NewInjector(nil, func() time.Duration { return 0 }); err == nil {
		t.Fatal("nil links accepted")
	}
	clk := simclock.New()
	links := netem.NewDuplex(clk, 1, func(netem.Packet) {}, func(netem.Packet) {})
	if _, err := NewInjector(links, nil); err == nil {
		t.Fatal("nil clock source accepted")
	}
}

func TestDirectionString(t *testing.T) {
	names := map[Direction]string{
		Bidirectional: "bidirectional",
		DownlinkOnly:  "downlink-only",
		UplinkOnly:    "uplink-only",
	}
	for d, want := range names {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", d, got, want)
		}
	}
	if Direction(9).String() == "" {
		t.Fatal("unknown direction should render")
	}
}

func TestInjectorDirectional(t *testing.T) {
	for _, tc := range []struct {
		dir              Direction
		wantDown, wantUp bool
	}{
		{DownlinkOnly, true, false},
		{UplinkOnly, false, true},
		{Bidirectional, true, true},
	} {
		clk := simclock.New()
		links := netem.NewDuplex(clk, 1, func(netem.Packet) {}, func(netem.Packet) {})
		inj, err := NewInjector(links, clk.Now)
		if err != nil {
			t.Fatal(err)
		}
		inj.Direction = tc.dir
		if err := inj.Inject(assignment(t, CondDelay25)); err != nil {
			t.Fatal(err)
		}
		_, down := links.Down.Rule()
		_, up := links.Up.Rule()
		if down != tc.wantDown || up != tc.wantUp {
			t.Fatalf("%v: down=%v up=%v, want %v/%v", tc.dir, down, up, tc.wantDown, tc.wantUp)
		}
		inj.Clear()
		if _, d := links.Down.Rule(); d {
			t.Fatalf("%v: down rule survived clear", tc.dir)
		}
		if _, u := links.Up.Rule(); u {
			t.Fatalf("%v: up rule survived clear", tc.dir)
		}
		if inj.Active() {
			t.Fatalf("%v: still active after clear", tc.dir)
		}
	}
}
