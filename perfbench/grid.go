package main

import (
	"fmt"

	"teledrive/internal/metrics"
	"teledrive/internal/netem"
	"teledrive/internal/rds"
	"teledrive/internal/validity"
)

// gridJob is one simulated point of a grid sweep, enumerated exactly as
// validity.GridSweepWorkers enumerates its jobs.
type gridJob struct {
	di, li int // grid coordinates; -1 for the baseline
	rule   netem.Rule
	label  string
	seed   int64
}

// gridJobs lists a sweep's points: the fault-free baseline, then every
// delay × loss combination row by row.
func gridJobs(seed int64) []gridJob {
	jobs := []gridJob{{di: -1, li: -1, label: "none", seed: seed}}
	for di, d := range gridDelays {
		for li, l := range gridLosses {
			jobs = append(jobs, gridJob{
				di: di, li: li,
				rule:  netem.Rule{Delay: d, Loss: l},
				label: fmt.Sprintf("delay %v + loss %.0f%%", d, l*100),
				seed:  seed + int64(di*100+li) + 1,
			})
		}
	}
	return jobs
}

// tracedPoint is validity.RunPoint through runTraced: the same
// configuration (cold scenario build, no arena), then the same summary
// of the run log, timed as validity.grade.
func tracedPoint(env validity.Env, j gridJob, w *tracedWorker) (validity.Point, error) {
	scn := env.NewScenario()
	topts := env.Transport
	injected := j.rule
	rule := j.rule
	rule.Delay += env.BaseDelay
	if env.BaseLoss > rule.Loss {
		rule.Loss = env.BaseLoss
	}
	var ruleP *netem.Rule
	if rule != (netem.Rule{}) {
		ruleP = &rule
	}
	out, err := runTraced(rds.BenchConfig{
		Scenario:        scn,
		Profile:         env.Profile,
		Seed:            j.seed,
		Transport:       &topts,
		DriverConfig:    env.DriverConfig,
		PersistentRule:  ruleP,
		PersistentLabel: j.label,
	}, w.tr, &w.tl)
	if err != nil {
		return validity.Point{}, err
	}
	var p validity.Point
	w.tr.timed(gradePoint, func() { p = summarizePoint(env, injected, j.label, scn.LaneWidth, out) })
	return p, nil
}

// summarizePoint reduces a run to its sweep point as validity.RunPoint
// does.
func summarizePoint(env validity.Env, injected netem.Rule, label string, laneWidth float64, out *rds.Outcome) validity.Point {
	p := validity.Point{
		Env:              env.Name,
		Label:            label,
		Rule:             injected,
		Completed:        out.Completed,
		Collisions:       out.EgoCollisions,
		FailedInjections: out.FailedInjections,
		TaskDuration:     out.Log.Duration(),
		LaneWidth:        laneWidth,
	}
	var steer []float64
	var absLat, speedSum float64
	for _, e := range out.Log.Ego {
		steer = append(steer, e.Steer)
		if e.Lateral < 0 {
			absLat -= e.Lateral
		} else {
			absLat += e.Lateral
		}
		speedSum += e.Speed
	}
	if n := len(out.Log.Ego); n > 0 {
		p.MeanAbsLateral = absLat / float64(n)
		p.MeanSpeed = speedSum / float64(n)
	}
	if res, err := metrics.ComputeSRR(steer, metrics.DefaultSRRConfig()); err == nil {
		p.SRR = res.RatePerMin
	}
	for _, ev := range out.Log.LaneInvasions {
		if ev.Kind == "departed" {
			p.LaneDepartures++
		}
	}
	return p
}

// gradeGrid classifies a sweep's points against its baseline with
// GridSweepWorkers' monotone pass (a combination grades at least as
// badly as its left and upper neighbours). pts[i] is jobs[i]'s point; a
// missing point yields no grid.
func gradeGrid(jobs []gridJob, pts []*validity.Point) []validity.GridPoint {
	for _, p := range pts {
		if p == nil {
			return nil
		}
	}
	pts[0].Grade = validity.DrivOK
	baseline := *pts[0]
	grades := make(map[[2]int]validity.Drivability)
	out := make([]validity.GridPoint, 0, len(jobs)-1)
	for ji, j := range jobs[1:] {
		p := *pts[ji+1]
		p.Grade = validity.Classify(p, baseline)
		if j.di > 0 {
			if g := grades[[2]int{j.di - 1, j.li}]; p.Grade < g {
				p.Grade = g
			}
		}
		if j.li > 0 {
			if g := grades[[2]int{j.di, j.li - 1}]; p.Grade < g {
				p.Grade = g
			}
		}
		grades[[2]int{j.di, j.li}] = p.Grade
		out = append(out, validity.GridPoint{Delay: gridDelays[j.di], Loss: gridLosses[j.li], Point: p})
	}
	return out
}
