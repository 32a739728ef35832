package questionnaire

import (
	"strings"
	"sync"
	"testing"

	"teledrive/internal/campaign"
	"teledrive/internal/driver"
)

func TestScoreQoE(t *testing.T) {
	cases := []struct {
		ratio    float64
		crashes  int
		timedOut bool
		want     int
	}{
		{1.0, 0, false, 4}, // clean faulty run
		{1.5, 0, false, 3}, // noticeably worse steering
		{3.0, 0, false, 2}, // much worse
		{1.5, 1, false, 2}, // worse + a crash
		{3.0, 2, true, 1},  // floor
		{1.0, 1, false, 3}, // crash only
	}
	for _, c := range cases {
		if got := ScoreQoE(c.ratio, c.crashes, c.timedOut); got != c.want {
			t.Errorf("ScoreQoE(%v, %d, %v) = %d, want %d", c.ratio, c.crashes, c.timedOut, got, c.want)
		}
	}
}

func TestQoEBounds(t *testing.T) {
	for ratio := 0.5; ratio < 10; ratio += 0.5 {
		for crashes := 0; crashes < 5; crashes++ {
			got := ScoreQoE(ratio, crashes, crashes%2 == 0)
			if got < 1 || got > 5 {
				t.Fatalf("QoE %d out of range", got)
			}
		}
	}
}

// The mini campaign every summary test reads; it runs once per test
// binary, since Summarize and SkillCorrelation only read the result.
var (
	miniOnce sync.Once
	miniRes  *campaign.Result
	miniErr  error
)

func miniResult(t *testing.T) *campaign.Result {
	t.Helper()
	miniOnce.Do(func() {
		var subs []driver.Profile
		for _, n := range []string{"T5", "T10", "T12"} {
			p, _ := driver.SubjectByName(n)
			subs = append(subs, p)
		}
		miniRes, miniErr = campaign.Run(campaign.Config{Seed: 5, Subjects: subs, ApplyPaperExclusions: true})
	})
	if miniErr != nil {
		t.Fatal(miniErr)
	}
	return miniRes
}

func TestSummarize(t *testing.T) {
	res := miniResult(t)
	s := Summarize(res)
	if s.Subjects != 3 {
		t.Fatalf("subjects = %d", s.Subjects)
	}
	// Profile facts: T5 and T10 are gamers, T12 is not.
	if s.Gaming != 2 {
		t.Fatalf("gaming = %d", s.Gaming)
	}
	if s.RecentGaming != 1 { // T10
		t.Fatalf("recent = %d", s.RecentGaming)
	}
	if s.QoEMean < 1 || s.QoEMean > 5 || s.QoEMin > s.QoEMax {
		t.Fatalf("QoE stats: %+v", s)
	}
	if s.VirtualTestingUseful != 3 {
		t.Fatalf("virtual testing useful = %d, want all (paper: all)", s.VirtualTestingUseful)
	}
	// T10 reports fault visibility; T5/T12 do not.
	if s.FeltDifference != 1 {
		t.Fatalf("felt difference = %d", s.FeltDifference)
	}
	if len(s.PerSubject) != 3 {
		t.Fatalf("per-subject = %d", len(s.PerSubject))
	}
}

func TestSummaryLines(t *testing.T) {
	res := miniResult(t)
	lines := Summarize(res).Lines()
	if len(lines) != 6 {
		t.Fatalf("lines = %d, want the 6 questionnaire answers", len(lines))
	}
	if !strings.Contains(lines[3], "QoE") {
		t.Fatalf("line 4 = %q", lines[3])
	}
}

func TestSkillCorrelation(t *testing.T) {
	res := miniResult(t)
	g, n, gamers, nonGamers := SkillCorrelation(res)
	if gamers != 2 || nonGamers != 1 {
		t.Fatalf("gamers=%d nonGamers=%d", gamers, nonGamers)
	}
	if g <= 0 || n <= 0 {
		t.Fatalf("ratios g=%v n=%v", g, n)
	}
}

func TestEmptySummary(t *testing.T) {
	s := Summarize(&campaign.Result{})
	if s.Subjects != 0 || s.QoEMin != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}
