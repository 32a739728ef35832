package campaign

import (
	"time"

	"teledrive/internal/core"
	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/scenario"
	"teledrive/internal/telemetry"
	"teledrive/internal/transport"
)

// PlanMode selects how fault budgets are chosen.
type PlanMode int

const (
	// PlanPaper replays the exact Table II fault counts.
	PlanPaper PlanMode = iota
	// PlanRandom draws fresh Table-II-like budgets from the seed.
	PlanRandom
)

// Config configures a campaign.
type Config struct {
	// Seed drives all campaign-level randomness (fault placement).
	Seed int64
	// Subjects defaults to driver.Subjects() (T1–T12).
	Subjects []driver.Profile
	// Scenarios defaults to scenario.TestScenarios().
	Scenarios func() []*scenario.Scenario
	// Plan selects paper-exact or random fault budgets.
	Plan PlanMode
	// IncludeTraining runs the §V-E1 free drive first (it produces no
	// table data but exercises the full pipeline).
	IncludeTraining bool
	// Transport overrides the default reliable channel (ablations).
	Transport *transport.Options
	// ApplyPaperExclusions reproduces §VI-A: exclude T7 and mask the
	// cells whose recordings failed.
	ApplyPaperExclusions bool
	// Workers bounds the number of simulation cells run concurrently
	// during the execute phase. 0 means runtime.GOMAXPROCS(0); 1 is the
	// exact legacy sequential path. Campaign results are bit-identical
	// for every value — all randomness is consumed by the sequential
	// plan phase and every cell carries an explicit seed.
	Workers int
	// Metrics, when non-nil, instruments the campaign: every cell runs
	// with this shared registry (netem/bridge/session instruments
	// aggregate across cells) and the execute phase exports cell
	// progress, worker utilization, failed injections and dropped
	// controls. Telemetry is inert — campaign results are bit-identical
	// with or without it.
	Metrics *telemetry.Registry
}

func (c *Config) fillDefaults() {
	if c.Subjects == nil {
		c.Subjects = driver.Subjects()
	}
	if c.Scenarios == nil {
		c.Scenarios = scenario.TestScenarios
	}
}

// ScenarioResult couples one scenario's golden and faulty drives.
type ScenarioResult struct {
	Scenario *scenario.Scenario
	Golden   *core.Result
	Faulty   *core.Result
}

// SubjectResult is everything one subject produced.
type SubjectResult struct {
	Profile driver.Profile
	Budget  FaultBudget
	// Assignment is the plan-phase POI→condition mapping the faulty
	// runs executed (one slice per scenario).
	Assignment Assignment
	Runs       []ScenarioResult
	Training   *core.Result // nil unless IncludeTraining

	// Excluded reproduces the paper's §VI-A data processing (T7).
	Excluded      bool
	ExcludeReason string
	// Missing marks recordings lost in the paper's collection phase.
	Missing MissingData
}

// MissingData mirrors §VI-A's recording failures.
type MissingData struct {
	// SRRGolden: steering data missing for the golden run (paper: T3).
	SRRGolden bool
	// SRRFaulty: steering data missing for the faulty run (paper: T8,
	// T10, T12).
	SRRFaulty bool
	// TTC: lead-vehicle velocity missing for both runs (paper: T1–T4).
	TTC bool
}

// paperMissing returns the §VI-A mask for a subject.
func paperMissing(name string) MissingData {
	var m MissingData
	switch name {
	case "T1", "T2", "T4":
		m.TTC = true
	case "T3":
		m.TTC = true
		m.SRRGolden = true
	case "T8", "T10", "T12":
		m.SRRFaulty = true
	}
	return m
}

// Result is a full campaign outcome.
type Result struct {
	Config   Config
	Subjects []SubjectResult
	// Elapsed is the wall-clock cost of the simulation (not simulated
	// time).
	Elapsed time.Duration
}

// Run executes the campaign: for every subject, a golden run and a
// faulty run through every scenario (plus optional training), exactly
// the §V-E2 protocol. It is the composition of the two phases: a
// sequential plan (BuildPlan — consumes all campaign randomness) and a
// parallel execute (Plan.Execute — a Config.Workers-wide pool over
// independent cells).
func Run(cfg Config) (*Result, error) {
	plan, err := BuildPlan(cfg)
	if err != nil {
		return nil, err
	}
	return plan.Execute()
}

// TotalFailedInjections sums rds.Outcome.FailedInjections over every
// drive of the campaign (training included). Nonzero means some cells
// never experienced their assigned fault conditions — invalid test
// executions under the paper's protocol; `campaign -strict` turns this
// into a nonzero exit.
func (r *Result) TotalFailedInjections() int {
	total := 0
	for _, sub := range r.Subjects {
		for _, res := range sub.allResults() {
			total += res.Outcome.FailedInjections
		}
	}
	return total
}

// allResults enumerates the subject's non-nil drive results in protocol
// order.
func (s *SubjectResult) allResults() []*core.Result {
	out := make([]*core.Result, 0, 1+2*len(s.Runs))
	if s.Training != nil {
		out = append(out, s.Training)
	}
	for _, run := range s.Runs {
		if run.Golden != nil {
			out = append(out, run.Golden)
		}
		if run.Faulty != nil {
			out = append(out, run.Faulty)
		}
	}
	return out
}

// Analysed returns the subjects that enter the result tables (excluded
// subjects filtered out).
func (r *Result) Analysed() []SubjectResult {
	out := make([]SubjectResult, 0, len(r.Subjects))
	for _, s := range r.Subjects {
		if !s.Excluded {
			out = append(out, s)
		}
	}
	return out
}

// InjectedCounts tallies actual injections per condition for a subject
// across the faulty runs (Table II row check).
func (s *SubjectResult) InjectedCounts() map[faultinject.Condition]int {
	out := make(map[faultinject.Condition]int)
	for _, run := range s.Runs {
		for _, f := range run.Faulty.Outcome.Log.Faults {
			if f.Action != "add" || f.Link != "downlink" {
				continue
			}
			if c, ok := faultinject.ConditionByLabel(f.Label); ok && c != faultinject.CondNFI {
				out[c]++
			}
		}
	}
	return out
}
