package core

import (
	"math"
	"sort"
	"time"

	"teledrive/internal/metrics"
	"teledrive/internal/scenario"
	"teledrive/internal/trace"
)

// leadCorridorHalfWidth is the lateral half-width around the route
// within which another road user counts as the lead vehicle for TTC.
const leadCorridorHalfWidth = 1.9

// Analysis is the per-run evaluation of the paper's §V-G metrics.
type Analysis struct {
	Subject  string
	Scenario string
	RunType  string

	// TTCByCondition holds gated TTC statistics per fault condition
	// label ("NFI", "5ms", ...). Conditions never active in the run are
	// absent — the paper's "-" cells.
	TTCByCondition map[string]metrics.TTCResult
	// SRRByCondition holds reversal rates (rev/min) per condition label.
	SRRByCondition map[string]float64
	// SRRExposure holds the steering-signal time per condition label,
	// for duration-weighted aggregation across scenarios.
	SRRExposure map[string]time.Duration
	// SRRWholeRun is the reversal rate over the entire run (the NFI /
	// FI columns of Table IV).
	SRRWholeRun float64
	// SteerFiltered is the low-passed steering-wheel profile in degrees
	// (Fig 4's steering profile).
	SteerFiltered []metrics.Sample

	// TaskTime is the traversal time of the scenario's task segment
	// (Fig 4: time to manoeuvre around the vehicles).
	TaskTime   time.Duration
	TaskTimeOK bool

	// MinTTC is the minimum gated TTC over the whole run, pooled across
	// every condition; +Inf when no gated sample was collected (no lead
	// inside the gate — the table's "-" case).
	MinTTC float64
	// DangerousTTCShare is the fraction of gated TTC samples below the
	// 6 s danger threshold, pooled across conditions (0 when no gated
	// samples). With TET it is the run's criticality signal: how much of
	// the lead-following exposure was spent in the dangerous band.
	DangerousTTCShare float64
	// DangerousTTCTime is the pooled time-exposed-below-threshold (TET)
	// across conditions.
	DangerousTTCTime time.Duration

	// CollisionsByCondition counts ego collisions per condition label.
	CollisionsByCondition map[string]int
	EgoCollisions         int
	LaneInvasions         int

	// SpeedStats and AccelStats summarize the ego telemetry (§VI-E's
	// "other metrics").
	SpeedStats metrics.SeriesStats
	AccelStats metrics.SeriesStats
	// MeanHeadway is the average time headway while a lead was within
	// the TTC gate, s.
	MeanHeadway float64
}

// AnalyzeRun computes the full analysis of a run log.
func AnalyzeRun(log *trace.RunLog, scn *scenario.Scenario) *Analysis {
	a := &Analysis{
		Subject:               log.Subject,
		Scenario:              log.Scenario,
		RunType:               log.RunType,
		TTCByCondition:        make(map[string]metrics.TTCResult),
		SRRByCondition:        make(map[string]float64),
		SRRExposure:           make(map[string]time.Duration),
		CollisionsByCondition: make(map[string]int),
	}

	analyzeTTC(a, log)
	analyzeSRR(a, log)
	analyzeTask(a, log, scn)
	analyzeEvents(a, log)
	analyzeKinematics(a, log)
	return a
}

// othersAt walks Others grouped per tick; both Ego and Others are
// appended in time order by the recorder.
type otherCursor struct {
	records []trace.OtherRecord
	idx     int
}

func (c *otherCursor) at(t time.Duration) []trace.OtherRecord {
	for c.idx < len(c.records) && c.records[c.idx].Time < t {
		c.idx++
	}
	start := c.idx
	end := start
	for end < len(c.records) && c.records[end].Time == t {
		end++
	}
	return c.records[start:end]
}

func analyzeTTC(a *Analysis, log *trace.RunLog) {
	collectors := make(map[string]*metrics.TTCCollector)
	cursor := &otherCursor{records: log.Others}
	var headways []float64
	for _, ego := range log.Ego {
		others := cursor.at(ego.Time)
		// Lead: nearest road user ahead of the ego inside the route
		// corridor.
		var lead *trace.OtherRecord
		best := math.Inf(1)
		for i := range others {
			o := &others[i]
			if math.Abs(o.Lateral) > leadCorridorHalfWidth {
				continue
			}
			ahead := o.Station - ego.Station
			if ahead <= 0 || ahead >= best {
				continue
			}
			best = ahead
			lead = o
		}
		label := log.ConditionAt(ego.Time)
		col := collectors[label]
		if col == nil {
			col = metrics.NewTTCCollector()
			collectors[label] = col
		}
		if lead == nil {
			col.Record(ego.Time, ego.Station, ego.Speed, math.NaN(), math.NaN())
			continue
		}
		col.Record(ego.Time, ego.Station, ego.Speed, lead.Station, lead.Speed)
		if ego.Speed > 0.5 && best <= metrics.DefaultTTCGatingDistance {
			headways = append(headways, metrics.HeadwayTime(best, ego.Speed))
		}
	}
	labels := make([]string, 0, len(collectors))
	for label := range collectors {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var pooled metrics.TTCResult
	for _, label := range labels {
		if res := collectors[label].Result(); res.Valid {
			a.TTCByCondition[label] = res
			pooled = metrics.Merge(pooled, res)
		}
	}
	// Run-level criticality signals: the adversarial search scores cells
	// on these, and the campaign report surfaces them per cell.
	a.MinTTC = math.Inf(1)
	if pooled.Valid {
		a.MinTTC = pooled.Min
		a.DangerousTTCShare = float64(pooled.Violations) / float64(pooled.N)
		a.DangerousTTCTime = pooled.TET
	}
	if len(headways) > 0 {
		a.MeanHeadway = metrics.Stats(headways).Mean
	}
}

func analyzeSRR(a *Analysis, log *trace.RunLog) {
	cfg := metrics.DefaultSRRConfig()
	// Whole-run SRR and the filtered profile.
	steer := make([]float64, len(log.Ego))
	for i, e := range log.Ego {
		steer[i] = e.Steer
	}
	whole, err := metrics.ComputeSRR(steer, cfg)
	if err == nil {
		a.SRRWholeRun = whole.RatePerMin
		a.SteerFiltered = make([]metrics.Sample, len(whole.Filtered))
		for i, v := range whole.Filtered {
			a.SteerFiltered[i] = metrics.Sample{Time: log.Ego[i].Time, Value: v}
		}
	}

	// Per-condition SRR: split the steering signal into contiguous
	// same-condition segments, count reversals per segment, and rate
	// them against the summed segment durations (counting across a
	// segment boundary would fabricate reversals).
	type agg struct {
		reversals int
		samples   int
	}
	byLabel := make(map[string]*agg)
	segStart := 0
	flush := func(end int, label string) {
		if end <= segStart {
			return
		}
		res, err := metrics.ComputeSRR(steer[segStart:end], cfg)
		if err != nil {
			return
		}
		ag := byLabel[label]
		if ag == nil {
			ag = &agg{}
			byLabel[label] = ag
		}
		ag.reversals += res.Reversals
		ag.samples += end - segStart
	}
	curLabel := ""
	for i, e := range log.Ego {
		label := log.ConditionAt(e.Time)
		if i == 0 {
			curLabel = label
			continue
		}
		if label != curLabel {
			flush(i, curLabel)
			segStart = i
			curLabel = label
		}
	}
	flush(len(log.Ego), curLabel)
	for label, ag := range byLabel {
		seconds := float64(ag.samples) / cfg.SampleRate
		if seconds > 0 {
			a.SRRByCondition[label] = float64(ag.reversals) / (seconds / 60)
			a.SRRExposure[label] = time.Duration(seconds * float64(time.Second))
		}
	}
}

func analyzeTask(a *Analysis, log *trace.RunLog, scn *scenario.Scenario) {
	if scn == nil || scn.TaskSegment[1] <= scn.TaskSegment[0] {
		return
	}
	timer := metrics.TaskTimer{FromStation: scn.TaskSegment[0], ToStation: scn.TaskSegment[1]}
	for _, e := range log.Ego {
		timer.Record(e.Time, e.Station)
	}
	a.TaskTime, a.TaskTimeOK = timer.Duration()
}

func analyzeEvents(a *Analysis, log *trace.RunLog) {
	for _, c := range log.Collisions {
		a.EgoCollisions++
		a.CollisionsByCondition[c.Label]++
	}
	a.LaneInvasions = len(log.LaneInvasions)
}

func analyzeKinematics(a *Analysis, log *trace.RunLog) {
	speeds := make([]float64, len(log.Ego))
	accels := make([]float64, len(log.Ego))
	for i, e := range log.Ego {
		speeds[i] = e.Speed
		accels[i] = math.Hypot(e.Ax, e.Ay)
	}
	a.SpeedStats = metrics.Stats(speeds)
	a.AccelStats = metrics.Stats(accels)
}
