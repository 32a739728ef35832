// Package faultinject implements the paper's fault model (§V-C) and the
// injection mechanism (§V-D): the five selected fault conditions (5, 25,
// 50 ms delay; 2 %, 5 % packet loss), applied bidirectionally to the
// vehicle↔station links by adding and deleting NETEM rules, with every
// add/delete logged.
package faultinject

import (
	"fmt"
	"time"

	"teledrive/internal/netem"
)

// Condition is one experimental fault condition — a column of the
// paper's Tables II–IV.
type Condition int

// The paper's conditions. CondNFI (no fault injected) is the golden-run
// baseline.
const (
	CondNFI Condition = iota
	CondDelay5
	CondDelay25
	CondDelay50
	CondLoss2
	CondLoss5
)

// FaultConditions lists the five injectable conditions in table order.
func FaultConditions() []Condition {
	return []Condition{CondDelay5, CondDelay25, CondDelay50, CondLoss2, CondLoss5}
}

// AllConditions lists NFI plus the five fault conditions in table order.
func AllConditions() []Condition {
	return append([]Condition{CondNFI}, FaultConditions()...)
}

// conditions defines each condition once, as the labelled rule it
// injects, indexed by Condition. CondNFI is the zero rule (transparent
// link).
var conditions = [...]struct {
	label string
	rule  netem.Rule
}{
	CondNFI:     {"NFI", netem.Rule{}},
	CondDelay5:  {"5ms", netem.Rule{Delay: 5 * time.Millisecond}},
	CondDelay25: {"25ms", netem.Rule{Delay: 25 * time.Millisecond}},
	CondDelay50: {"50ms", netem.Rule{Delay: 50 * time.Millisecond}},
	CondLoss2:   {"2%", netem.Rule{Loss: 0.02}},
	CondLoss5:   {"5%", netem.Rule{Loss: 0.05}},
}

// Valid reports whether c is one of the defined conditions.
func (c Condition) Valid() bool { return c >= 0 && int(c) < len(conditions) }

// String returns the table label of the condition.
func (c Condition) String() string {
	if !c.Valid() {
		return fmt.Sprintf("cond(%d)", int(c))
	}
	return conditions[c].label
}

// Rule returns the NETEM rule implementing the condition. CondNFI and
// unknown conditions map to the zero rule (transparent link).
func (c Condition) Rule() netem.Rule {
	if !c.Valid() {
		return netem.Rule{}
	}
	return conditions[c].rule
}

// Assignment returns the condition as the labelled rule an Injector
// applies — the only place a condition becomes a rule. An unknown
// condition is refused (its rule would silently impair nothing while
// the run counts as faulted); the returned assignment still carries
// its label for the error record.
func (c Condition) Assignment() (RuleAssignment, error) {
	if !c.Valid() {
		return RuleAssignment{Label: c.String()}, fmt.Errorf("faultinject: inject unknown condition %d", int(c))
	}
	return RuleAssignment{Rule: c.Rule(), Label: c.String()}, nil
}

// ConditionByLabel parses a table label back into a condition.
func ConditionByLabel(label string) (Condition, bool) {
	for _, c := range AllConditions() {
		if c.String() == label {
			return c, true
		}
	}
	return CondNFI, false
}

// Direction selects which link directions an injector touches. The
// paper's loopback setup is bidirectional (§V-D); the ablation benches
// compare against single-direction injection.
type Direction int

// Injection directions.
const (
	Bidirectional Direction = iota
	DownlinkOnly
	UplinkOnly
)

// String renders the direction.
func (d Direction) String() string {
	switch d {
	case Bidirectional:
		return "bidirectional"
	case DownlinkOnly:
		return "downlink-only"
	case UplinkOnly:
		return "uplink-only"
	default:
		return fmt.Sprintf("direction(%d)", int(d))
	}
}

// RuleAssignment is one labelled netem rule injected at one POI — the
// only thing an Injector applies. A paper condition becomes one through
// Condition.Assignment; the adversarial search builds its own for the
// perturbed fault space (delay/jitter/loss magnitudes between and
// beyond the paper's five columns). Label names the rule in run logs
// and analysis tables; it must be non-empty and must not collide with
// the canonical labels unless the rule really is that condition.
type RuleAssignment struct {
	Rule  netem.Rule
	Label string
}

// Validate reports structural errors.
func (a *RuleAssignment) Validate() error {
	if a.Label == "" {
		return fmt.Errorf("faultinject: rule assignment needs a label")
	}
	return a.Rule.Validate()
}

// Injector applies labelled fault rules to a duplex link pair,
// mirroring the paper's bidirectional loopback injection, and reports
// every rule change to an optional log sink.
type Injector struct {
	// OnChange, when non-nil, receives every rule add/delete with the
	// label of the injected rule ("NFI" while nothing is injected; feeds
	// trace.Recorder.RecordFault).
	OnChange func(now time.Duration, link, action, desc, label string)
	// Direction defaults to Bidirectional (the paper's setup).
	Direction Direction

	links  *netem.Duplex
	active string // label of the injected rule; "" while the links are clean
	now    func() time.Duration
}

// NewInjector wires an injector to the session links. now supplies the
// simulated time for logging.
func NewInjector(links *netem.Duplex, now func() time.Duration) (*Injector, error) {
	if links == nil || now == nil {
		return nil, fmt.Errorf("faultinject: NewInjector requires links and a clock source")
	}
	inj := &Injector{links: links, now: now}
	links.OnRuleChanged(func(t time.Duration, link, action, desc string) {
		if inj.OnChange != nil {
			label := inj.active
			if label == "" {
				label = CondNFI.String()
			}
			inj.OnChange(t, link, action, desc, label)
		}
	})
	return inj, nil
}

// Active reports whether a rule is injected.
func (i *Injector) Active() bool { return i.active != "" }

// Inject applies the labelled rule per the injector's direction. A
// paper condition arrives here through Condition.Assignment, a search
// perturbation as its own RuleAssignment: both take this one path.
func (i *Injector) Inject(a RuleAssignment) error {
	if err := a.Validate(); err != nil {
		return err
	}
	// The label is set before the rule goes in: the add records carry it.
	i.active = a.Label
	var err error
	switch i.Direction {
	case DownlinkOnly:
		err = i.links.Down.AddRule(a.Rule)
	case UplinkOnly:
		err = i.links.Up.AddRule(a.Rule)
	default:
		err = i.links.ApplyBoth(a.Rule)
	}
	if err != nil {
		i.active = ""
		return fmt.Errorf("faultinject: inject %q: %w", a.Label, err)
	}
	return nil
}

// Clear removes any injected rule from the directions this injector
// touches. Its delete records carry the injected rule's label.
func (i *Injector) Clear() {
	if i.active == "" {
		return
	}
	switch i.Direction {
	case DownlinkOnly:
		i.links.Down.DeleteRule()
	case UplinkOnly:
		i.links.Up.DeleteRule()
	default:
		i.links.ClearBoth()
	}
	i.active = ""
}
