package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"teledrive/internal/campaign"
	"teledrive/internal/metrics"
)

// WriteFig4SVG renders the paper's Fig 4 as a standalone SVG: the
// golden and faulty filtered steering-wheel profiles stacked like the
// original figure, with the task times annotated.
func WriteFig4SVG(w io.Writer, f campaign.Fig4Data) error {
	const (
		width  = 900
		panelH = 160
		margin = 46
		gap    = 26
	)
	height := 2*panelH + 3*gap + 20

	var sb strings.Builder
	sb.WriteString(fmt.Sprintf(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		width, height, width, height))
	sb.WriteString(`<style>text{font-family:sans-serif;font-size:12px}</style>`)
	sb.WriteString(fmt.Sprintf(`<text x="%d" y="16">Steering profile — subject %s, scenario %s</text>`,
		margin, escape(f.Subject), escape(f.Scenario)))

	panel := func(top int, title string, series []metrics.Sample, taskOK bool, taskSecs float64, color string) {
		sb.WriteString(fmt.Sprintf(`<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#999"/>`,
			margin, top, width-2*margin, panelH))
		label := title
		if taskOK {
			label = fmt.Sprintf("%s (task segment: %.1f s)", title, taskSecs)
		}
		sb.WriteString(fmt.Sprintf(`<text x="%d" y="%d">%s</text>`, margin, top-6, escape(label)))
		if len(series) < 2 {
			return
		}
		maxAbs := 1.0
		for _, s := range series {
			if a := math.Abs(s.Value); a > maxAbs {
				maxAbs = a
			}
		}
		t0 := series[0].Time
		t1 := series[len(series)-1].Time
		span := (t1 - t0).Seconds()
		if span <= 0 {
			span = 1
		}
		// Midline.
		mid := float64(top) + panelH/2
		sb.WriteString(fmt.Sprintf(`<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`,
			margin, mid, width-margin, mid))
		var path strings.Builder
		step := len(series)/2000 + 1 // cap path size
		for i := 0; i < len(series); i += step {
			s := series[i]
			x := float64(margin) + (s.Time-t0).Seconds()/span*float64(width-2*margin)
			y := mid - s.Value/maxAbs*(panelH/2-6)
			if path.Len() == 0 {
				path.WriteString(fmt.Sprintf("M%.1f %.1f", x, y))
			} else {
				path.WriteString(fmt.Sprintf(" L%.1f %.1f", x, y))
			}
		}
		sb.WriteString(fmt.Sprintf(`<path d="%s" fill="none" stroke="%s" stroke-width="1"/>`, path.String(), color))
		sb.WriteString(fmt.Sprintf(`<text x="%d" y="%d" text-anchor="end">±%.0f°</text>`,
			width-margin, top+14, maxAbs))
	}

	panel(gap+20, "faulty run", f.Faulty, f.FaultyOK, f.FaultyTime.Seconds(), "#c0392b")
	panel(gap+20+panelH+gap, "golden run", f.Golden, f.GoldenOK, f.GoldenTime.Seconds(), "#2471a3")
	sb.WriteString(`</svg>`)
	_, err := io.WriteString(w, sb.String())
	return err
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
