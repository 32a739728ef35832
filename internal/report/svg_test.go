package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"teledrive/internal/campaign"
	"teledrive/internal/metrics"
)

func fig4Fixture() campaign.Fig4Data {
	mk := func(n int) []metrics.Sample {
		out := make([]metrics.Sample, n)
		for i := range out {
			out[i] = metrics.Sample{Time: time.Duration(i) * 20 * time.Millisecond, Value: float64(i%20 - 10)}
		}
		return out
	}
	return campaign.Fig4Data{
		Subject: "T6", Scenario: "lane-change-slalom",
		Golden: mk(1000), Faulty: mk(1400),
		GoldenTime: 19 * time.Second, GoldenOK: true,
		FaultyTime: 33 * time.Second, FaultyOK: true,
	}
}

func TestWriteFig4SVG(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFig4SVG(&buf, fig4Fixture()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(out, "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	if strings.Count(out, "<path") != 2 {
		t.Fatalf("want 2 profile paths, got %d", strings.Count(out, "<path"))
	}
	for _, want := range []string{"faulty run", "golden run", "19.0 s", "33.0 s", "T6"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestWriteFig4SVGEmptySeries(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFig4SVG(&buf, campaign.Fig4Data{Subject: "T1", Scenario: "x"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "</svg>") {
		t.Fatal("SVG truncated for empty data")
	}
}

func TestWriteFig4SVGEscapesNames(t *testing.T) {
	f := fig4Fixture()
	f.Subject = `<script>"x"&`
	var buf bytes.Buffer
	if err := WriteFig4SVG(&buf, f); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<script>") {
		t.Fatal("subject name not escaped")
	}
}
