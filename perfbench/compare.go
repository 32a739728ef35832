package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// bound is an end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchBounds reads the end-to-end bounds from the repository's
// BENCHMARK.json, when it is there; compare then flags regressions.
func benchBounds() map[string]bound {
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	out := map[string]bound{}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil || json.Unmarshal(b, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m
	}
	return out
}

// readRecords loads the JSON-lines records --out appended to path.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compare prints, per workload and metric, the median of the old and
// new records, the change, and the old records' spread. It refuses to
// compare records measured on different hosts.
func compare(w io.Writer, oldPath, newPath string) error {
	olds, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return err
	}
	all := append(append([]record(nil), olds...), news...)
	if len(olds) == 0 || len(news) == 0 {
		return fmt.Errorf("compare: need records on both sides (%d old, %d new)", len(olds), len(news))
	}
	for _, r := range all[1:] {
		if ok, field := sameHost(all[0].Host, r.Host); !ok {
			return fmt.Errorf("compare: records come from different hosts (%s differs: %+v vs %+v); timings are only comparable on one host", field, all[0].Host, r.Host)
		}
	}
	bounds := benchBounds()
	type key struct {
		workload, metric string
		trace            bool
	}
	values := map[key][2][]float64{}
	units := map[key]string{}
	for side, recs := range [][]record{olds, news} {
		for _, r := range recs {
			for _, name := range metricNames(r.Metrics) {
				m := r.Metrics[name]
				k := key{r.Workload, name, r.Trace}
				v := values[k]
				v[side] = append(v[side], m.Value)
				values[k] = v
				units[k] = m.Unit
			}
		}
	}
	keys := make([]key, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		if keys[i].trace != keys[j].trace {
			return !keys[i].trace
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "host: %s, %d CPUs, %s\n", all[0].Host.CPUModel, all[0].Host.NumCPU, all[0].Host.GoVersion)
	fmt.Fprintf(w, "%-15s %-36s %14s %14s %9s %9s  %s\n", "workload", "metric", "old median", "new median", "change", "old IQR", "verdict")
	for _, k := range keys {
		v := values[k]
		if len(v[0]) == 0 || len(v[1]) == 0 {
			continue
		}
		om, nm := median(v[0]), median(v[1])
		change := ratio(nm-om, om)
		verdict := ""
		if b, ok := bounds[k.metric]; ok && !k.trace {
			worse := change
			if b.Better == "higher" {
				worse = -change
			}
			switch {
			case spread(v[0]) > b.Bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > b.Bound:
				verdict = fmt.Sprintf("REGRESSED beyond bound %.2f", b.Bound)
			default:
				verdict = "within bound"
			}
		}
		fmt.Fprintf(w, "%-15s %-36s %14.6g %14.6g %+8.2f%% %8.2f%%  %s %s\n",
			k.workload, k.metric, om, nm, 100*change, 100*spread(v[0]), units[k], verdict)
	}
	return nil
}
