package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// tinyHub is hub-delta cut to rounds of its first ten sessions: the
// same code path and goldens, small enough for a unit test.
type tinyHub struct{ hubDelta }

func (d *tinyHub) prepare(k int, _ *spanTracer) (round, error) {
	return &hubRound{h: d.h, specs: hubSpecs(k)[:10]}, nil
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// lastLine parses the final stdout line and checks it has exactly the
// result keys.
func lastLine(t *testing.T, out []byte) result {
	t.Helper()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, last)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("last line keys = %v", got)
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		t.Fatal(err)
	}
	if r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted {
		t.Errorf("attempted %d, failed %d", r.Attempted, r.Failed)
	}
	return r
}

// checkMetrics asserts the metrics are exactly the named ones, with
// their units, and finite.
func checkMetrics(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

func TestOutputSchema(t *testing.T) {
	spec := loadBenchSpec(t)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	g, err := loadGolden("hub-delta")
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)

	rec := &record{Workload: "hub-delta", Seed: 3, Host: hostStamp(), Workers: workers}
	if err := runUntracedMode(rec, &tinyHub{}, g, 1); err != nil {
		t.Fatal(err)
	}
	rec.Correct = rec.Correct && rec.Failed == 0
	var out bytes.Buffer
	if err := emit(&out, rec, ""); err != nil {
		t.Fatal(err)
	}
	r := lastLine(t, out.Bytes())
	if !r.Correct || r.Attempted != rec.Samples || r.Attempted < minCells || r.Failed != 0 {
		t.Errorf("untraced: correct %v, attempted %d, failed %d; reasons %v", r.Correct, r.Attempted, r.Failed, rec.Reasons)
	}
	checkMetrics(t, r.Metrics, spec.EndToEnd)

	rec = &record{Workload: "hub-delta", Seed: 3, Trace: true, Host: hostStamp(), Workers: workers}
	if err := runTracedMode(rec, &tinyHub{}, g); err != nil {
		t.Fatal(err)
	}
	rec.Correct = rec.Correct && rec.Failed == 0
	out.Reset()
	if err := emit(&out, rec, ""); err != nil {
		t.Fatal(err)
	}
	r = lastLine(t, out.Bytes())
	if !r.Correct || r.Failed != 0 {
		t.Errorf("traced: correct %v, failed %d; reasons %v", r.Correct, r.Failed, rec.Reasons)
	}
	checkMetrics(t, r.Metrics, spec.PerLayer)
}

// TestGoldensCoverEveryInputSet checks the recorded goldens load and
// have the cell counts the workloads produce.
func TestGoldensCoverEveryInputSet(t *testing.T) {
	want := map[string]int{
		"paper-campaign": paperCells,
		"hub-delta":      hubSessionsPerRound,
		"impaired-link":  impairedGridsPerRound * gridPointsPerSweep,
	}
	for _, name := range workloadNames {
		g, err := loadGolden(name)
		if err != nil {
			t.Fatal(err)
		}
		for k, s := range g.Sets {
			if len(s.Cells) != want[name] {
				t.Errorf("%s set %d: %d cells, want %d", name, k, len(s.Cells), want[name])
			}
		}
	}
}
