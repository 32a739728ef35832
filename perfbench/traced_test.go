package main

import (
	"reflect"
	"testing"

	"teledrive/internal/campaign"
	"teledrive/internal/core"
	"teledrive/internal/driver"
	"teledrive/internal/hub"
	"teledrive/internal/rds"
	"teledrive/internal/scenario"
	"teledrive/internal/session"
	"teledrive/internal/validity"
)

// The traced session must reproduce the untraced run bit for bit. These
// tests take one cell of each workload through its public entry point
// and through runTraced and compare the outcome digests (the grid point,
// for impaired-link, whose entry point returns no outcome).

func TestTracedMatchesPaperCampaignCell(t *testing.T) {
	plan, err := campaign.BuildPlan(campaign.Config{Seed: 4, Plan: campaign.PlanPaper, ApplyPaperExclusions: true})
	if err != nil {
		t.Fatal(err)
	}
	// A faulty cell: the POI supervisor injects conditions into netem.
	var cell campaign.RunCell
	for _, c := range plan.Cells {
		if c.Kind == campaign.CellFaulty {
			cell = c
			break
		}
	}
	arts := scenario.NewArtifactCache()
	spec := cell.Spec
	spec.Scratch = session.NewRunScratch()
	spec.Artifacts = arts
	want, err := core.RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := campaign.BuildPlan(campaign.Config{Seed: 4, Plan: campaign.PlanPaper, ApplyPaperExclusions: true})
	if err != nil {
		t.Fatal(err)
	}
	var again campaign.RunCell
	for _, c := range fresh.Cells {
		if c.Kind == campaign.CellFaulty {
			again = c
			break
		}
	}
	s := again.Spec
	tr := newSpanTracer()
	var tl tally
	got, err := runTraced(rds.BenchConfig{
		Scenario: s.Scenario, Profile: s.Profile, Seed: s.Seed,
		FaultAssignments: s.Faults, FaultRules: s.FaultRules, Transport: s.Transport,
		DriverConfig: s.Driver, Scratch: session.NewRunScratch(), Artifacts: arts,
	}, tr, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := rds.OutcomeDigest(want.Outcome), rds.OutcomeDigest(got); w != g {
		t.Fatalf("traced paper-campaign cell digest differs:\n untraced %s\n traced   %s", w, g)
	}
	if want.Outcome.Injected == 0 {
		t.Errorf("the compared cell injected no faults; pick one that exercises the supervisor")
	}
	checkTraceCoverage(t, tr, &tl)
}

func TestTracedMatchesHubDeltaCell(t *testing.T) {
	h := hub.New(hub.Config{Workers: 1})
	spec := hubSpecs(0)[3]
	want := h.Run(spec)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	cfg := hubSpecs(0)[3].BenchConfig
	cfg.Scratch = session.NewRunScratch()
	cfg.Artifacts = h.Artifacts()
	tr := newSpanTracer()
	var tl tally
	got, err := runTraced(cfg, tr, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if g := rds.OutcomeDigest(got); g != want.Digest {
		t.Fatalf("traced hub-delta session digest differs:\n untraced %s\n traced   %s", want.Digest, g)
	}
	if tl.srv.DeltasSent == 0 {
		t.Errorf("hub-delta session sent no deltas")
	}
	checkTraceCoverage(t, tr, &tl)
}

func TestTracedMatchesImpairedLinkPoint(t *testing.T) {
	t5, _ := driver.SubjectByName("T5")
	env := validity.Simulator(t5)
	job := gridJobs(1)[9] // 100 ms + 5 % loss: retransmissions guaranteed
	want, err := validity.RunPoint(env, job.rule, job.label, job.seed)
	if err != nil {
		t.Fatal(err)
	}
	w := &tracedWorker{tr: newSpanTracer()}
	got, err := tracedPoint(env, job, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("traced impaired-link point differs:\n untraced %+v\n traced   %+v", want, got)
	}
	if w.tl.retransmits == 0 {
		t.Errorf("impaired point retransmitted nothing")
	}
	checkTraceCoverage(t, w.tr, &w.tl)
}

// checkTraceCoverage asserts the traced cell exercised every per-fire
// layer and left no span open.
func checkTraceCoverage(t *testing.T, tr *spanTracer, tl *tally) {
	t.Helper()
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
	for _, l := range []layer{cameraTx, downRx, stationRx, upRx, plantRx, uplinkTx, worldStep, driverTick, traceSample, supervisor, clockLoop, scenarioBuild, sessionWire} {
		if tr.calls[l] == 0 || tr.self[l] <= 0 {
			t.Errorf("layer %s: %d calls, %v self time; want both positive", layerNames[l], tr.calls[l], tr.self[l])
		}
	}
	if tr.fires == 0 || tl.worldTicks == 0 || tl.srv.FramesSent == 0 || tl.cli.FramesReceived == 0 {
		t.Errorf("implausible counters: fires %d ticks %d frames %d/%d", tr.fires, tl.worldTicks, tl.srv.FramesSent, tl.cli.FramesReceived)
	}
	if tr.calls[worldStep] != tl.worldTicks {
		t.Errorf("world.step calls %d != world ticks %d", tr.calls[worldStep], tl.worldTicks)
	}
	if tr.calls[cameraTx] != tl.srv.FramesSent+tl.srv.FramesDropped {
		t.Errorf("camera fires %d != frames sent+dropped %d", tr.calls[cameraTx], tl.srv.FramesSent+tl.srv.FramesDropped)
	}
}
