// Package questionnaire implements the paper's §V-E3 post-test
// questionnaire and the §VI-F answer aggregation. The background
// questions (1–3, 6) read the subject profiles; the Quality-of-
// Experience question (4) is synthesized from each subject's measured
// faulty-run degradation relative to their golden run, and question 5
// ("is virtual testing useful?") is uniformly positive, as in the paper.
package questionnaire

import (
	"fmt"

	"teledrive/internal/campaign"
)

// Answers is one subject's completed questionnaire.
type Answers struct {
	Subject string
	// Q1: much experience playing video games?
	GamingExperience bool
	RecentGaming     bool
	// Q2: car racing games specifically?
	RacingGames bool
	// Q3: prior experience with the driving station (0/1/2 = none, once,
	// a few times)?
	StationExperience int
	// Q4: QoE of the faulty run compared to the golden run, 1–5.
	QoE int
	// Q5: is virtual testing useful?
	VirtualTestingUseful bool
	// Q6: felt a difference when faults were injected?
	FeltDifference bool
}

// ScoreQoE converts measured degradation into the 1–5 QoE answer. The
// inputs are ratios of the subject's faulty run to their golden run.
func ScoreQoE(srrRatio float64, collisions int, timedOut bool) int {
	score := 4
	if srrRatio > 1.08 {
		score--
	}
	if srrRatio > 1.9 {
		score--
	}
	if collisions > 0 {
		score--
	}
	if timedOut {
		score--
	}
	if score < 1 {
		score = 1
	}
	return score
}

// ForSubject fills the questionnaire for one campaign subject.
func ForSubject(sub campaign.SubjectResult) Answers {
	a := Answers{
		Subject:              sub.Profile.Name,
		GamingExperience:     sub.Profile.GamingExperience,
		RecentGaming:         sub.Profile.RecentGaming,
		RacingGames:          sub.Profile.RacingGames,
		StationExperience:    sub.Profile.StationExperience,
		VirtualTestingUseful: true,
		FeltDifference:       sub.Profile.ReportsFaultVisibility,
	}
	var goldenSRR, faultySRR float64
	collisions := 0
	timedOut := false
	for _, run := range sub.Runs {
		goldenSRR += run.Golden.Analysis.SRRWholeRun
		faultySRR += run.Faulty.Analysis.SRRWholeRun
		collisions += run.Faulty.Outcome.EgoCollisions
		if run.Faulty.Outcome.TimedOut {
			timedOut = true
		}
	}
	ratio := 1.0
	if goldenSRR > 0 {
		ratio = faultySRR / goldenSRR
	}
	a.QoE = ScoreQoE(ratio, collisions, timedOut)
	return a
}

// Summary aggregates the questionnaire over the analysed subjects — the
// §VI-F numbers.
type Summary struct {
	Subjects             int
	Gaming               int // some video-game experience
	RecentGaming         int
	RacingGames          int
	NoStationExperience  int
	StationOnce          int
	StationFewTimes      int
	QoEMean              float64
	QoEMin, QoEMax       int
	VirtualTestingUseful int
	FeltDifference       int
	PerSubject           []Answers
}

// Summarize runs the questionnaire over a campaign result.
func Summarize(res *campaign.Result) Summary {
	s := Summary{QoEMin: 6}
	total := 0
	for _, sub := range res.Analysed() {
		a := ForSubject(sub)
		s.PerSubject = append(s.PerSubject, a)
		s.Subjects++
		if a.GamingExperience {
			s.Gaming++
		}
		if a.RecentGaming {
			s.RecentGaming++
		}
		if a.RacingGames {
			s.RacingGames++
		}
		switch a.StationExperience {
		case 0:
			s.NoStationExperience++
		case 1:
			s.StationOnce++
		default:
			s.StationFewTimes++
		}
		total += a.QoE
		if a.QoE < s.QoEMin {
			s.QoEMin = a.QoE
		}
		if a.QoE > s.QoEMax {
			s.QoEMax = a.QoE
		}
		if a.VirtualTestingUseful {
			s.VirtualTestingUseful++
		}
		if a.FeltDifference {
			s.FeltDifference++
		}
	}
	if s.Subjects > 0 {
		s.QoEMean = float64(total) / float64(s.Subjects)
	} else {
		s.QoEMin = 0
	}
	return s
}

// Lines renders the summary in the §VI-F answer style.
func (s Summary) Lines() []string {
	return []string{
		fmt.Sprintf("1) %d of %d subjects have video-game experience (%d recent)", s.Gaming, s.Subjects, s.RecentGaming),
		fmt.Sprintf("2) %d of %d have played car-racing games specifically", s.RacingGames, s.Subjects),
		fmt.Sprintf("3) %d report no prior driving-station experience, %d used one a few times, %d only once",
			s.NoStationExperience, s.StationFewTimes, s.StationOnce),
		fmt.Sprintf("4) mean QoE of the faulty run is %.2f (min %d, max %d)", s.QoEMean, s.QoEMin, s.QoEMax),
		fmt.Sprintf("5) %d of %d believe virtual testing is useful", s.VirtualTestingUseful, s.Subjects),
		fmt.Sprintf("6) %d of %d report visually noticing the injected faults", s.FeltDifference, s.Subjects),
	}
}

// SkillCorrelation computes the §V-G2 exploratory correlation between
// gaming experience and performance under faults: the mean faulty/golden
// SRR ratio for gamers vs non-gamers. The paper could not analyse this
// for lack of diversity (10 of 11 were gamers); the API exists so a more
// diverse synthetic population can.
func SkillCorrelation(res *campaign.Result) (gamerRatio, nonGamerRatio float64, gamers, nonGamers int) {
	var gSum, nSum float64
	for _, sub := range res.Analysed() {
		var golden, faulty float64
		for _, run := range sub.Runs {
			golden += run.Golden.Analysis.SRRWholeRun
			faulty += run.Faulty.Analysis.SRRWholeRun
		}
		if golden <= 0 {
			continue
		}
		ratio := faulty / golden
		if sub.Profile.GamingExperience {
			gSum += ratio
			gamers++
		} else {
			nSum += ratio
			nonGamers++
		}
	}
	if gamers > 0 {
		gamerRatio = gSum / float64(gamers)
	}
	if nonGamers > 0 {
		nonGamerRatio = nSum / float64(nonGamers)
	}
	return gamerRatio, nonGamerRatio, gamers, nonGamers
}
