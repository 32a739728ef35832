package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"teledrive/internal/campaign"
	"teledrive/internal/core"
	"teledrive/internal/driver"
	"teledrive/internal/hub"
	"teledrive/internal/rds"
	"teledrive/internal/report"
	"teledrive/internal/scenario"
	"teledrive/internal/session"
	"teledrive/internal/validity"
)

// inputSets is the number of recorded input sets per workload. A run's
// seed picks where it starts in the rotation (round r uses set
// (seed+r) mod inputSets), so every output can be checked against a
// golden recorded in golden/.
const inputSets = 8

// workload is one benchmark workload: a closed-loop batch of cells run
// at a fixed worker count through the program's public entry points.
type workload interface {
	// setup creates the state every round shares (artifact cache, hub)
	// and warms it for every scenario the workload drives.
	setup(workers int) error
	// prepare generates the inputs of one round from input set k. A
	// non-nil tracer times the generation where it is a workload layer
	// (the campaign plan).
	prepare(k int, tr *spanTracer) (round, error)
}

// round is one closed-loop batch of cells; a run repeats rounds.
type round interface {
	// run executes the round untraced, every cell's stack built by
	// cc.stack. The returned function computes the outputs for the
	// correctness check; it runs after the timed phase.
	run(workers int, cc *cellClock) func() outputs
	// traced executes the same cells through runTraced on workers
	// closed-loop workers; rt times the round-level layers.
	traced(workers int, rt *spanTracer) (outputs, []*tracedWorker)
}

// outputs is what a round produced, reduced to what the goldens pin.
type outputs struct {
	cells  []string // per-cell output hash; "" when the cell errored
	bad    []bool   // per-cell FailedInjections > 0
	report string   // hash of the rendered campaign report (paper-campaign)
}

func newOutputs(n int) outputs {
	return outputs{cells: make([]string, n), bad: make([]bool, n)}
}

// shortHash is the first 16 hex digits of s's SHA-256: enough to catch
// any changed output, small enough to record thousands of cells.
func shortHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// tracedWorker is one traced worker's state: its tracer, counters and
// run arena, and the host time its cells took.
type tracedWorker struct {
	tr      *spanTracer
	tl      tally
	scratch *session.RunScratch
	wall    time.Duration
}

// tracedPool runs cells 0..n-1 on workers goroutines, closed loop: a
// worker takes the next cell when its current one finishes. do writes
// only cell i's slots of any shared result slice.
func tracedPool(n, workers int, do func(w *tracedWorker, i int)) []*tracedWorker {
	if workers > n {
		workers = n
	}
	ws := make([]*tracedWorker, workers)
	next := make(chan int)
	var wg sync.WaitGroup
	for k := range ws {
		w := &tracedWorker{tr: newSpanTracer(), scratch: session.NewRunScratch()}
		ws[k] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := hostNow()
				do(w, i)
				w.wall += hostNow().Sub(start)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return ws
}

// ---- paper-campaign -------------------------------------------------

// paperCampaign runs PlanPaper campaigns with the paper's exclusions:
// 12 subjects × 3 scenarios × golden/faulty = 72 cells per plan, full
// frames over the reliable transport, executed with
// campaign.ExecuteCells and assembled into the report's tables.
type paperCampaign struct {
	arts *scenario.ArtifactCache
}

// paperSeed is input set k's plan seed; set 0 is the paper's canonical
// seed 4. A round is one 72-cell plan, so a run takes at least two
// (minCells).
func paperSeed(k int) int64 { return int64(4 + k) }

// paperCells is the cell count of one plan.
const paperCells = 72

func (p *paperCampaign) setup(int) error {
	p.arts = scenario.NewArtifactCache()
	for _, s := range scenario.TestScenarios() {
		if _, err := p.arts.Get(s); err != nil {
			return err
		}
	}
	return nil
}

func (p *paperCampaign) prepare(k int, tr *spanTracer) (round, error) {
	var plan *campaign.Plan
	var err error
	build := func() {
		plan, err = campaign.BuildPlan(campaign.Config{Seed: paperSeed(k), Plan: campaign.PlanPaper, ApplyPaperExclusions: true})
	}
	if tr != nil {
		tr.timed(campaignPlan, build)
	} else {
		build()
	}
	if err != nil {
		return nil, err
	}
	return &paperRound{arts: p.arts, plan: plan}, nil
}

type paperRound struct {
	arts *scenario.ArtifactCache
	plan *campaign.Plan
}

func (r *paperRound) run(workers int, cc *cellClock) func() outputs {
	specs := make([]core.RunSpec, len(r.plan.Cells))
	for i, c := range r.plan.Cells {
		specs[i] = c.Spec
		specs[i].Stack = cc.stack
	}
	results, _, err := campaign.ExecuteCells(specs, workers, nil, r.arts)
	var rendered []byte
	if err == nil {
		rendered = r.render(results, nil)
	}
	return func() outputs { return r.outputs(results, rendered) }
}

// render folds the results into the campaign Result and renders the
// report as cmd/campaign prints it; nil when the fold fails.
func (r *paperRound) render(results []*core.Result, tr *spanTracer) []byte {
	var buf bytes.Buffer
	fold := func() {
		res, err := r.plan.Assemble(results, hostNow())
		if err == nil {
			report.WriteCampaignReport(&buf, res, "auto", 1)
		}
	}
	if tr != nil {
		tr.timed(campaignAssemble, fold)
	} else {
		fold()
	}
	if buf.Len() == 0 {
		return nil
	}
	return buf.Bytes()
}

// outputs hashes the per-cell outcome digests and the report.
func (r *paperRound) outputs(results []*core.Result, rendered []byte) outputs {
	o := newOutputs(len(r.plan.Cells))
	for i, res := range results {
		if res == nil {
			continue
		}
		o.cells[i] = shortHash(rds.OutcomeDigest(res.Outcome))
		o.bad[i] = res.Outcome.FailedInjections > 0
	}
	if rendered != nil {
		o.report = shortHash(string(rendered))
	}
	return o
}

func (r *paperRound) traced(workers int, rt *spanTracer) (outputs, []*tracedWorker) {
	cells := r.plan.Cells
	results := make([]*core.Result, len(cells))
	ws := tracedPool(len(cells), workers, func(w *tracedWorker, i int) {
		spec := cells[i].Spec
		out, err := runTraced(rds.BenchConfig{
			Scenario:         spec.Scenario,
			Profile:          spec.Profile,
			Seed:             spec.Seed,
			FaultAssignments: spec.Faults,
			FaultRules:       spec.FaultRules,
			Transport:        spec.Transport,
			DriverConfig:     spec.Driver,
			Scratch:          w.scratch,
			Artifacts:        r.arts,
		}, w.tr, &w.tl)
		if err != nil {
			return
		}
		// core.RunOne's post-run work: detach the log from the arena,
		// then analyse it.
		w.tr.timed(analyze, func() {
			out.Log = out.Log.Clone()
			results[i] = &core.Result{Outcome: out, Analysis: core.AnalyzeRun(out.Log, spec.Scenario)}
		})
	})
	var rendered []byte
	complete := true
	for _, res := range results {
		complete = complete && res != nil
	}
	if complete {
		rendered = r.render(results, rt)
	}
	return r.outputs(results, rendered), ws
}

// ---- hub-delta ------------------------------------------------------

// hubDelta hosts follow-vehicle sessions with delta-streamed world
// views on a clean link through hub.RunMany.
type hubDelta struct {
	h *hub.Hub
}

// hubSessionsPerRound sizes a round.
const hubSessionsPerRound = 100

func (d *hubDelta) setup(workers int) error {
	d.h = hub.New(hub.Config{Workers: workers})
	_, err := d.h.Artifacts().Get(scenario.FollowVehicle())
	return err
}

// hubSpecs are input set k's sessions: the twelve subjects in turn,
// each session with its own seed.
func hubSpecs(k int) []hub.SessionSpec {
	subjects := driver.Subjects()
	specs := make([]hub.SessionSpec, hubSessionsPerRound)
	for i := range specs {
		specs[i] = hub.SessionSpec{
			BenchConfig: rds.BenchConfig{
				Scenario:       scenario.FollowVehicle(),
				Profile:        subjects[i%len(subjects)],
				Seed:           int64(1000*k + i + 1),
				DeltaStreaming: true,
			},
			Name: fmt.Sprintf("follow-%d", i),
		}
	}
	return specs
}

func (d *hubDelta) prepare(k int, _ *spanTracer) (round, error) {
	return &hubRound{h: d.h, specs: hubSpecs(k)}, nil
}

type hubRound struct {
	h     *hub.Hub
	specs []hub.SessionSpec
}

func (r *hubRound) run(_ int, cc *cellClock) func() outputs {
	specs := append([]hub.SessionSpec(nil), r.specs...)
	for i := range specs {
		specs[i].NewStack = cc.stack
	}
	res := r.h.RunMany(specs)
	return func() outputs {
		o := newOutputs(len(res))
		for i, sr := range res {
			if sr.Err != nil || sr.Outcome == nil {
				continue
			}
			o.cells[i] = shortHash(sr.Digest)
			o.bad[i] = sr.Outcome.FailedInjections > 0
		}
		return o
	}
}

func (r *hubRound) traced(workers int, _ *spanTracer) (outputs, []*tracedWorker) {
	o := newOutputs(len(r.specs))
	ws := tracedPool(len(r.specs), workers, func(w *tracedWorker, i int) {
		cfg := r.specs[i].BenchConfig
		cfg.Scratch = w.scratch
		cfg.Artifacts = r.h.Artifacts()
		out, err := runTraced(cfg, w.tr, &w.tl)
		if err != nil {
			return
		}
		var dg string
		w.tr.timed(digest, func() { dg = rds.OutcomeDigest(out) })
		o.cells[i] = shortHash(dg)
		o.bad[i] = out.FailedInjections > 0
	})
	return o, ws
}

// ---- impaired-link --------------------------------------------------

// impairedLink sweeps validity.Simulator(T5) over a delay × loss grid
// plus the fault-free baseline: the link is impaired for the whole
// drive.
type impairedLink struct {
	env validity.Env
}

var (
	gridDelays = []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
	gridLosses = []float64{0.01, 0.02, 0.05}
)

// impairedGridsPerRound makes a round 5 sweeps × 10 simulated points;
// a run takes at least two rounds (minCells).
const impairedGridsPerRound = 5

// gridSeeds are input set k's sweep seeds. GridSweepWorkers seeds its
// points seed, seed+1 … seed+203, so sweeps 1000 apart never share one.
func gridSeeds(k int) []int64 {
	s := make([]int64, impairedGridsPerRound)
	for g := range s {
		s[g] = int64(1000*(impairedGridsPerRound*k+g) + 1)
	}
	return s
}

func (l *impairedLink) setup(int) error {
	t5, ok := driver.SubjectByName("T5")
	if !ok {
		return fmt.Errorf("perfbench: subject T5 missing")
	}
	l.env = validity.Simulator(t5)
	// validity.RunPoint builds every point's scenario cold (no artifact
	// cache); building one here checks the scenario and warms the
	// process's code paths, which is all there is to warm.
	_, err := l.env.NewScenario().Build()
	return err
}

func (l *impairedLink) prepare(k int, _ *spanTracer) (round, error) {
	return &gridRound{env: l.env, seeds: gridSeeds(k)}, nil
}

type gridRound struct {
	env   validity.Env
	seeds []int64
}

func (r *gridRound) run(workers int, cc *cellClock) func() outputs {
	env := r.env
	env.NewStack = cc.stack
	grids := make([][]validity.GridPoint, len(r.seeds))
	for g, seed := range r.seeds {
		pts, err := validity.GridSweepWorkers(env, gridDelays, gridLosses, seed, workers)
		if err == nil {
			grids[g] = pts
		}
	}
	return func() outputs { return gridOutputs(grids) }
}

// gridPointsPerSweep is the 3×3 grid; the baseline is one of the ten
// simulated points but not a GridPoint.
const gridPointsPerSweep = 9

// gridOutputs hashes every GridPoint value; a failed sweep leaves its
// points empty.
func gridOutputs(grids [][]validity.GridPoint) outputs {
	o := newOutputs(len(grids) * gridPointsPerSweep)
	for g, pts := range grids {
		if len(pts) != gridPointsPerSweep {
			continue
		}
		for i, gp := range pts {
			o.cells[g*gridPointsPerSweep+i] = shortHash(fmt.Sprintf("%+v", gp))
			o.bad[g*gridPointsPerSweep+i] = gp.Point.FailedInjections > 0
		}
	}
	return o
}

func (r *gridRound) traced(workers int, rt *spanTracer) (outputs, []*tracedWorker) {
	grids := make([][]validity.GridPoint, len(r.seeds))
	var all []*tracedWorker
	for g, seed := range r.seeds {
		jobs := gridJobs(seed)
		pts := make([]*validity.Point, len(jobs))
		ws := tracedPool(len(jobs), workers, func(w *tracedWorker, i int) {
			if p, err := tracedPoint(r.env, jobs[i], w); err == nil {
				pts[i] = &p
			}
		})
		all = append(all, ws...)
		rt.timed(gradePoint, func() { grids[g] = gradeGrid(jobs, pts) })
	}
	return gridOutputs(grids), all
}
