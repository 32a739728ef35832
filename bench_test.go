// Package teledrive's top-level benchmark harness regenerates every
// table and figure of the paper's evaluation (DESIGN.md §4) plus the
// ablations of DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// Key result numbers are attached to each benchmark via b.ReportMetric,
// so `go test -bench` output doubles as the paper-vs-measured record
// (see EXPERIMENTS.md); `go run ./cmd/campaign` prints the rendered
// tables. TestPaperClaims (claims_test.go) gates the same results.
package teledrive_test

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"teledrive/internal/campaign"
	"teledrive/internal/core"
	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/netem"
	"teledrive/internal/questionnaire"
	"teledrive/internal/rds"
	"teledrive/internal/report"
	"teledrive/internal/scenario"
	"teledrive/internal/transport"
	"teledrive/internal/validity"
)

// The shared seed-4 campaign: every table bench and TestPaperClaims
// read the same run, so the expensive simulation happens once per
// `go test` invocation.
var (
	campaignOnce sync.Once
	campaignRes  *campaign.Result
	campaignErr  error
)

func sharedCampaign(tb testing.TB) *campaign.Result {
	tb.Helper()
	campaignOnce.Do(func() {
		campaignRes, campaignErr = campaign.Run(campaign.Config{
			Seed:                 4,
			Plan:                 campaign.PlanPaper,
			ApplyPaperExclusions: true,
		})
	})
	if campaignErr != nil {
		tb.Fatal(campaignErr)
	}
	return campaignRes
}

// BenchmarkTableI renders the driving-station specification (E1).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.WriteTableI(io.Discard, rds.PaperStation())
	}
}

// BenchmarkTableII regenerates the fault-injection summary (E2). The
// reported metrics are the grand total and per-condition totals; the
// paper's row is 134 total = 20/30/24/31/29.
func BenchmarkTableII(b *testing.B) {
	res := sharedCampaign(b)
	b.ResetTimer()
	var t2 campaign.TableII
	for i := 0; i < b.N; i++ {
		t2 = res.BuildTableII()
		report.WriteTableII(io.Discard, t2)
	}
	b.ReportMetric(float64(t2.Total), "faults_total")
	b.ReportMetric(float64(t2.Totals[faultinject.CondDelay50]), "faults_50ms")
	b.ReportMetric(float64(t2.Totals[faultinject.CondLoss5]), "faults_5pct")
}

// BenchmarkTableIII regenerates the TTC statistics (E3). Reported:
// population means of the NFI and 5% columns' minima — the paper's
// observation is that minimum TTC tends to RISE under faults.
func BenchmarkTableIII(b *testing.B) {
	res := sharedCampaign(b)
	b.ResetTimer()
	var t3 campaign.TableIII
	for i := 0; i < b.N; i++ {
		t3 = res.BuildTableIII()
		report.WriteTableIII(io.Discard, t3)
	}
	var nfiMin, faultMin float64
	var nfiN, faultN int
	for _, row := range t3.Rows {
		if row.Missing {
			continue
		}
		if c, ok := row.Cells["NFI"]; ok && c.Valid {
			nfiMin += c.Res.Min
			nfiN++
		}
		for _, label := range []string{"5ms", "25ms", "50ms", "2%", "5%"} {
			if c, ok := row.Cells[label]; ok && c.Valid {
				faultMin += c.Res.Min
				faultN++
			}
		}
	}
	if nfiN > 0 {
		b.ReportMetric(nfiMin/float64(nfiN), "ttc_min_nfi_s")
	}
	if faultN > 0 {
		b.ReportMetric(faultMin/float64(faultN), "ttc_min_fault_s")
	}
}

// BenchmarkTableIV regenerates the SRR statistics (E4). Reported: the
// column averages. The paper's row is NFI 5.04, FI 5.58, delays
// 7.57/7.85/7.66, 2% 7.71, 5% 9.18 — the shape to match is
// NFI < delays ≈ 2% < 5%.
func BenchmarkTableIV(b *testing.B) {
	res := sharedCampaign(b)
	b.ResetTimer()
	var t4 campaign.TableIV
	for i := 0; i < b.N; i++ {
		t4 = res.BuildTableIV()
		report.WriteTableIV(io.Discard, t4)
	}
	for key, metric := range map[string]string{
		"NFI": "srr_nfi", "FI": "srr_fi", "5ms": "srr_5ms", "25ms": "srr_25ms",
		"50ms": "srr_50ms", "2%": "srr_2pct", "5%": "srr_5pct",
	} {
		if v, ok := t4.ColumnAvg[key]; ok {
			b.ReportMetric(v, metric)
		}
	}
}

// BenchmarkFig4 regenerates the steering-profile comparison (E5).
// Reported: golden and faulty task times; the paper saw 19 s vs 33 s.
func BenchmarkFig4(b *testing.B) {
	res := sharedCampaign(b)
	b.ResetTimer()
	var fig campaign.Fig4Data
	for i := 0; i < b.N; i++ {
		var ok bool
		fig, ok = res.BuildFig4("T6", 1)
		if !ok {
			b.Fatal("Fig4 data missing")
		}
		report.WriteFig4(io.Discard, fig)
	}
	if fig.GoldenOK {
		b.ReportMetric(fig.GoldenTime.Seconds(), "task_golden_s")
	}
	if fig.FaultyOK {
		b.ReportMetric(fig.FaultyTime.Seconds(), "task_faulty_s")
	}
}

// BenchmarkCollisionAnalysis regenerates §VI-E (E6). The paper: 2 of 11
// collided in the golden run, 8 of 11 in the faulty run; only 50 ms and
// 5 % loss led to crashes.
func BenchmarkCollisionAnalysis(b *testing.B) {
	res := sharedCampaign(b)
	b.ResetTimer()
	var col campaign.CollisionAnalysis
	for i := 0; i < b.N; i++ {
		col = res.BuildCollisionAnalysis()
		report.WriteCollisionAnalysis(io.Discard, col)
	}
	b.ReportMetric(float64(col.GoldenCollided), "golden_collided")
	b.ReportMetric(float64(col.FaultyCollided), "faulty_collided")
	b.ReportMetric(float64(col.CrashCountByCondition["50ms"]), "crashes_50ms")
	b.ReportMetric(float64(col.CrashCountByCondition["5%"]), "crashes_5pct")
	b.ReportMetric(float64(col.CrashCountByCondition["25ms"]+col.CrashCountByCondition["5ms"]+col.CrashCountByCondition["2%"]), "crashes_other")
}

// BenchmarkQuestionnaire regenerates §VI-F (E7). The paper: 10/11
// gaming, 9/11 racing games, 6 no station experience, QoE mean 2.81
// (min 2, max 4), 11/11 pro virtual testing, 5/11 felt the faults.
func BenchmarkQuestionnaire(b *testing.B) {
	res := sharedCampaign(b)
	b.ResetTimer()
	var s questionnaire.Summary
	for i := 0; i < b.N; i++ {
		s = questionnaire.Summarize(res)
		report.WriteQuestionnaire(io.Discard, s)
	}
	b.ReportMetric(float64(s.Gaming), "gaming")
	b.ReportMetric(float64(s.RacingGames), "racing")
	b.ReportMetric(float64(s.NoStationExperience), "no_station_exp")
	b.ReportMetric(s.QoEMean, "qoe_mean")
	b.ReportMetric(float64(s.FeltDifference), "felt_difference")
}

// BenchmarkValiditySweep regenerates the §VIII comparison (E8).
// Reported: the smallest delay (ms) at which each environment is no
// longer "ok" — the paper's thresholds are ≈100–200 ms for the
// simulator and ≈20–100 ms for the model vehicle — and the loss grade
// ordering.
func BenchmarkValiditySweep(b *testing.B) {
	var simPts, mvPts []validity.Point
	for i := 0; i < b.N; i++ {
		simPts, mvPts = validitySweeps(b)
	}
	b.ReportMetric(firstDegradedDelayMs(simPts), "sim_delay_degraded_ms")
	b.ReportMetric(firstDegradedDelayMs(mvPts), "model_delay_degraded_ms")
	b.ReportMetric(float64(gradeAt(simPts, "loss 10%")), "sim_loss10_grade")
	b.ReportMetric(float64(gradeAt(mvPts, "loss 10%")), "model_loss10_grade")
}

// validitySweeps runs the §VIII delay and loss sweeps on the simulator
// (subject T5) and on the model vehicle.
func validitySweeps(tb testing.TB) (simPts, mvPts []validity.Point) {
	tb.Helper()
	prof, _ := driver.SubjectByName("T5")
	simPts, err := validity.Sweep(validity.Simulator(prof), validity.PaperDelays(), validity.PaperLosses(), 2024)
	if err != nil {
		tb.Fatal(err)
	}
	mvPts, err = validity.Sweep(validity.ModelVehicle(), validity.ModelDelays(), validity.PaperLosses(), 2024)
	if err != nil {
		tb.Fatal(err)
	}
	return simPts, mvPts
}

// firstDegradedDelayMs is the smallest swept delay (ms) graded worse
// than "ok", or -1 when every delay stays ok.
func firstDegradedDelayMs(pts []validity.Point) float64 {
	for _, p := range pts {
		if p.Rule.Delay > 0 && p.Grade > validity.DrivOK {
			return float64(p.Rule.Delay.Milliseconds())
		}
	}
	return -1
}

// gradeAt is the grade of the sweep point with the given label, or -1
// when no point carries it.
func gradeAt(pts []validity.Point, label string) validity.Drivability {
	for _, p := range pts {
		if p.Label == label {
			return p.Grade
		}
	}
	return -1
}

// campaignCellStats walks a campaign result and returns the cell count
// plus the summed per-cell wall clock (training + golden + faulty).
func campaignCellStats(res *campaign.Result) (cells int, cellSum time.Duration) {
	for _, sub := range res.Subjects {
		if sub.Training != nil {
			cells++
			cellSum += sub.Training.Elapsed
		}
		for _, run := range sub.Runs {
			cells += 2
			cellSum += run.Golden.Elapsed + run.Faulty.Elapsed
		}
	}
	return cells, cellSum
}

// BenchmarkCampaignWorkers measures the plan/execute split's scaling:
// the full default campaign (12 subjects × 3 scenarios × golden+faulty
// = 72 cells) at 1, 2, 4, and 8 workers. Results are bit-identical
// across worker counts (the determinism tests enforce it); only the
// wall clock changes.
//
// Read cells_per_s (cells ÷ campaign wall clock) for the true
// throughput — it is the only metric that cannot be inflated by
// oversubscription. concurrency (summed per-cell wall-clock ÷ campaign
// wall-clock) is the average number of in-flight cells: on a host with
// ≥ workers cores it coincides with the speedup, but on an
// oversubscribed host (e.g. a 1-core CI box) it keeps rising with the
// worker count while cells_per_s stays flat — the pool merely kept N
// cells resident while the wall clock stood still. cell_ms is the mean
// per-cell wall-clock. See EXPERIMENTS.md "Worker scaling on an
// oversubscribed host".
func BenchmarkCampaignWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var res *campaign.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = campaign.Run(campaign.Config{
					Seed:                 4,
					Plan:                 campaign.PlanPaper,
					ApplyPaperExclusions: true,
					Workers:              w,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			cells, cellSum := campaignCellStats(res)
			b.ReportMetric(res.Elapsed.Seconds(), "wall_s")
			if res.Elapsed > 0 {
				b.ReportMetric(float64(cells)/res.Elapsed.Seconds(), "cells_per_s")
				b.ReportMetric(cellSum.Seconds()/res.Elapsed.Seconds(), "concurrency")
			}
			if cells > 0 {
				b.ReportMetric(cellSum.Seconds()*1e3/float64(cells), "cell_ms")
			}
		})
	}
}

// BenchmarkCampaignCellsThroughput is the tentpole's headline number:
// end-to-end batched execution rate of the full paper campaign (72
// cells) on the default worker pool, reported as cells_per_s = cells ÷
// campaign wall clock. One sequential-runner sub-benchmark isolates
// the per-worker arena + shared-artifact win without any scheduling
// noise; the pooled one adds the worker pool on top.
func BenchmarkCampaignCellsThroughput(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"pool", 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var res *campaign.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = campaign.Run(campaign.Config{
					Seed:                 4,
					Plan:                 campaign.PlanPaper,
					ApplyPaperExclusions: true,
					Workers:              bc.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			cells, cellSum := campaignCellStats(res)
			b.ReportMetric(res.Elapsed.Seconds(), "wall_s")
			if res.Elapsed > 0 {
				b.ReportMetric(float64(cells)/res.Elapsed.Seconds(), "cells_per_s")
			}
			if cells > 0 {
				b.ReportMetric(cellSum.Seconds()*1e3/float64(cells), "cell_ms")
			}
		})
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------

// BenchmarkAblationTransport compares the TCP-like reliable channel
// (loss → stalls + bursts) against a datagram channel (loss → dropped
// frames) under 5% loss.
func BenchmarkAblationTransport(b *testing.B) {
	var relSRR, dgSRR float64
	for i := 0; i < b.N; i++ {
		relSRR, _ = ablationRunSimple(b, nil)
		dgSRR, _ = ablationRunSimple(b, func(cfg *rds.BenchConfig) {
			cfg.Transport = &transport.Options{Name: "dgram", Reliable: false}
		})
	}
	b.ReportMetric(relSRR, "srr_reliable")
	b.ReportMetric(dgSRR, "srr_datagram")
}

func ablationRunSimple(b *testing.B, mutate func(*rds.BenchConfig)) (float64, int) {
	b.Helper()
	scn := scenario.FollowVehicle()
	assign := make([]faultinject.Condition, len(scn.POIs))
	for i := range assign {
		assign[i] = faultinject.CondLoss5
	}
	prof, _ := driver.SubjectByName("T5")
	cfg := rds.BenchConfig{Scenario: scn, Profile: prof, Seed: 4242, FaultAssignments: assign}
	if mutate != nil {
		mutate(&cfg)
	}
	out, err := rds.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	a := core.AnalyzeRun(out.Log, scn)
	return a.SRRByCondition["5%"], out.EgoCollisions
}

// BenchmarkAblationCaution disables the caution adaptation (the driver
// no longer slows on a degraded feed) — the paper's rising-minimum-TTC
// observation should disappear.
func BenchmarkAblationCaution(b *testing.B) {
	run := func(caution float64) float64 {
		scn := scenario.FollowVehicle()
		assign := make([]faultinject.Condition, len(scn.POIs))
		for i := range assign {
			assign[i] = faultinject.CondLoss5
		}
		prof, _ := driver.SubjectByName("T5")
		prof.Caution = caution
		out, err := rds.Run(rds.BenchConfig{Scenario: scn, Profile: prof, Seed: 4242, FaultAssignments: assign})
		if err != nil {
			b.Fatal(err)
		}
		a := core.AnalyzeRun(out.Log, scn)
		if t, ok := a.TTCByCondition["5%"]; ok {
			return t.Min
		}
		return -1
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(0.5)
		without = run(0)
	}
	b.ReportMetric(with, "ttc_min_cautious")
	b.ReportMetric(without, "ttc_min_bold")
}

// BenchmarkAblationDirection compares bidirectional fault injection
// (the paper's loopback setup) against downlink-only injection.
func BenchmarkAblationDirection(b *testing.B) {
	run := func(dir faultinject.Direction) float64 {
		scn := scenario.FollowVehicle()
		assign := make([]faultinject.Condition, len(scn.POIs))
		for i := range assign {
			assign[i] = faultinject.CondDelay50
		}
		prof, _ := driver.SubjectByName("T6")
		out, err := rds.Run(rds.BenchConfig{
			Scenario: scn, Profile: prof, Seed: 4242,
			FaultAssignments: assign, InjectDirection: dir,
		})
		if err != nil {
			b.Fatal(err)
		}
		a := core.AnalyzeRun(out.Log, scn)
		return a.SRRByCondition["50ms"]
	}
	var both, down float64
	for i := 0; i < b.N; i++ {
		both = run(faultinject.Bidirectional)
		down = run(faultinject.DownlinkOnly)
	}
	b.ReportMetric(both, "srr_bidirectional")
	b.ReportMetric(down, "srr_downlink_only")
}

// BenchmarkAblationLossModel compares i.i.d. loss against a bursty
// Gilbert–Elliott process with the same average rate.
func BenchmarkAblationLossModel(b *testing.B) {
	run := func(rule netem.Rule, label string) float64 {
		prof, _ := driver.SubjectByName("T5")
		out, err := rds.Run(rds.BenchConfig{
			Scenario: scenario.FollowVehicle(), Profile: prof, Seed: 4242,
			PersistentRule: &rule, PersistentLabel: label,
		})
		if err != nil {
			b.Fatal(err)
		}
		a := core.AnalyzeRun(out.Log, scenario.FollowVehicle())
		return a.SRRByCondition[label]
	}
	var iid, bursty float64
	for i := 0; i < b.N; i++ {
		iid = run(netem.Rule{Loss: 0.05}, "iid-5%")
		// GE with ≈5% average: bad state p=0.5, stationary bad ≈ 10%.
		bursty = run(netem.Rule{GE: &netem.GilbertElliott{
			PGoodToBad: 0.02, PBadToGood: 0.18, LossGood: 0.0, LossBad: 0.5,
		}}, "ge-5%")
	}
	b.ReportMetric(iid, "srr_iid_loss")
	b.ReportMetric(bursty, "srr_bursty_loss")
}

// BenchmarkAblationFrameRate compares the paper's ≈28 fps feed against a
// 15 fps feed under the same 50 ms delay.
func BenchmarkAblationFrameRate(b *testing.B) {
	run := func(interval time.Duration) float64 {
		scn := scenario.FollowVehicle()
		assign := make([]faultinject.Condition, len(scn.POIs))
		for i := range assign {
			assign[i] = faultinject.CondDelay50
		}
		prof, _ := driver.SubjectByName("T5")
		out, err := rds.Run(rds.BenchConfig{
			Scenario: scn, Profile: prof, Seed: 4242,
			FaultAssignments: assign, FrameInterval: interval,
		})
		if err != nil {
			b.Fatal(err)
		}
		a := core.AnalyzeRun(out.Log, scn)
		return a.SRRByCondition["50ms"]
	}
	var fast, slow float64
	for i := 0; i < b.N; i++ {
		fast = run(36 * time.Millisecond)
		slow = run(67 * time.Millisecond)
	}
	b.ReportMetric(fast, "srr_28fps")
	b.ReportMetric(slow, "srr_15fps")
}

// BenchmarkAblationCongestion compares the fixed-window transport (the
// calibrated default; the paper's loopback has no bandwidth bottleneck)
// against Reno congestion control, where 5 % loss collapses the video
// throughput (the Mathis effect) on top of the head-of-line stalls.
func BenchmarkAblationCongestion(b *testing.B) {
	run := func(congestion bool) (frames uint64, srr float64) {
		scn := scenario.FollowVehicle()
		assign := make([]faultinject.Condition, len(scn.POIs))
		for i := range assign {
			assign[i] = faultinject.CondLoss5
		}
		prof, _ := driver.SubjectByName("T5")
		topts := transport.Options{Name: "bench", Reliable: true, Congestion: congestion}
		out, err := rds.Run(rds.BenchConfig{
			Scenario: scn, Profile: prof, Seed: 4242,
			FaultAssignments: assign, Transport: &topts,
		})
		if err != nil {
			b.Fatal(err)
		}
		a := core.AnalyzeRun(out.Log, scn)
		return out.ClientStats.FramesReceived, a.SRRByCondition["5%"]
	}
	var fixedFrames, renoFrames uint64
	var fixedSRR, renoSRR float64
	for i := 0; i < b.N; i++ {
		fixedFrames, fixedSRR = run(false)
		renoFrames, renoSRR = run(true)
	}
	b.ReportMetric(float64(fixedFrames), "frames_fixed_window")
	b.ReportMetric(float64(renoFrames), "frames_reno")
	b.ReportMetric(fixedSRR, "srr_fixed_window")
	b.ReportMetric(renoSRR, "srr_reno")
}
