// Command perfbench is teledrive's end-to-end and per-layer benchmark.
//
//	go run . --workload paper-campaign --seed 1 --seconds 20 --trace 0
//	go run . compare old.jsonl new.jsonl
//	go run . --record golden
//
// A run executes closed-loop rounds of one workload's cells at
// GOMAXPROCS workers through the program's public entry points for
// about --seconds (and at least 100 cells), checks every cell's output against the
// goldens recorded in golden/, and prints its metrics; the last line of
// standard output is one JSON object (correct, attempted, failed,
// metrics). --trace 0 reports the end-to-end metrics of untraced
// rounds; --trace 1 runs one round untraced and the same inputs through
// the traced session and reports per-layer self times and simulated
// counters instead. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full result of one run, stamped with its host; --out
// appends it as one JSON line for compare.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      Host              `json:"host"`
	Workers   int               `json:"workers"`
	Rounds    int               `json:"rounds"`
	InputSets []int             `json:"input_sets"`
	Samples   int               `json:"cell_samples"`
	RoundWall []float64         `json:"round_wall_s,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Reasons   []string          `json:"failure_reasons,omitempty"`
	Correct   bool              `json:"correct"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricNames lists a metric map's names in sorted order.
func metricNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadNames in report order.
var workloadNames = []string{"paper-campaign", "hub-delta", "impaired-link"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper-campaign":
		return &paperCampaign{}, nil
	case "hub-delta":
		return &hubDelta{}, nil
	case "impaired-link":
		return &impairedLink{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// setupRepeats is how many times a run builds its set-up; setup_s is
// the median, so one cold start does not set it.
const setupRepeats = 15

// minCells is the fewest timed cells a run takes: with 100 samples, ten
// lie beyond the reported p90.
const minCells = 100

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			return errors.New("usage: perfbench compare OLD.jsonl NEW.jsonl")
		}
		return compare(stdout, args[1], args[2])
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-campaign, hub-delta or impaired-link")
	seed := fs.Int64("seed", 0, "workload seed: selects the rotation of recorded input sets")
	seconds := fs.Int("seconds", 30, "measure untraced rounds for about this many seconds (and at least 100 cells)")
	traced := fs.Int("trace", 0, "1 = per-layer run: one untraced round, then the same inputs traced")
	out := fs.String("out", "", "append the run's host-stamped record to this JSON-lines file")
	recordDir := fs.String("record", "", "record golden outputs of every input set into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	if *recordDir != "" {
		names := workloadNames
		if *name != "" {
			names = []string{*name}
		}
		return recordGoldens(stdout, *recordDir, names, workers)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", *seconds)
	}
	w, err := newWorkload(*name)
	if err != nil {
		return err
	}
	g, err := loadGolden(*name)
	if err != nil {
		return err
	}
	rec := &record{Workload: *name, Seed: *seed, Trace: *traced == 1, Host: hostStamp(), Workers: workers}
	if rec.Trace {
		err = runTracedMode(rec, w, g)
	} else {
		err = runUntracedMode(rec, w, g, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	rec.Correct = rec.Correct && rec.Failed == 0
	return emit(stdout, rec, *out)
}

// inputSet is the input set round r of a run with this seed uses.
func inputSet(seed int64, r int) int {
	k := (seed + int64(r)) % inputSets
	if k < 0 {
		k += inputSets
	}
	return int(k)
}

// probe is a snapshot of the process counters a timed phase reads.
type probe struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcCPU   float64
	busyCPU float64
	gcCount uint64
}

var rtSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func takeProbe() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]rtmetrics.Sample, len(rtSamples))
	for i, n := range rtSamples {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return probe{
		at:      hostNow(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcCPU:   s[0].Value.Float64(),
		busyCPU: s[1].Value.Float64() - s[2].Value.Float64(),
		gcCount: s[3].Value.Uint64(),
	}
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024 / 1e6          // Linux reports KiB
}

// measured is one untraced round's timed phase.
type measured struct {
	wall, cpu      time.Duration
	lat            []time.Duration
	sim            time.Duration
	mallocs, bytes uint64
	gcShare        float64
	gcCycles       uint64
	out            outputs
}

// measureRound runs one round untraced between two probes.
func measureRound(r round, workers int) measured {
	cc := &cellClock{}
	runtime.GC()
	p0 := takeProbe()
	verify := r.run(workers, cc)
	p1 := takeProbe()
	lat, sim := cc.take()
	return measured{
		wall:     p1.at.Sub(p0.at),
		cpu:      p1.cpu - p0.cpu,
		lat:      lat,
		sim:      sim,
		mallocs:  p1.mallocs - p0.mallocs,
		bytes:    p1.bytes - p0.bytes,
		gcShare:  ratio(p1.gcCPU-p0.gcCPU, p1.busyCPU-p0.busyCPU),
		gcCycles: p1.gcCount - p0.gcCount,
		out:      verify(),
	}
}

// setupRun builds the workload's set-up setupRepeats times, each from
// scratch, and returns the first round's inputs from the last build
// with the median set-up time.
func setupRun(w workload, workers, set int) (round, float64, error) {
	var times []float64
	var first round
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // each build starts from a settled heap
		start := hostNow()
		if err := w.setup(workers); err != nil {
			return nil, 0, err
		}
		r, err := w.prepare(set, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, hostNow().Sub(start).Seconds())
		first = r
	}
	return first, median(times), nil
}

func runUntracedMode(rec *record, w workload, g *goldenFile, budget time.Duration) error {
	first, setup, err := setupRun(w, rec.Workers, inputSet(rec.Seed, 0))
	if err != nil {
		return err
	}
	var simPerCPU []float64
	var lat []time.Duration
	var mallocs, bytes uint64
	start := hostNow()
	for r := 0; ; r++ {
		set := inputSet(rec.Seed, r)
		rd := first
		if r > 0 {
			if rd, err = w.prepare(set, nil); err != nil {
				return err
			}
		}
		m := measureRound(rd, rec.Workers)
		failed, reasons := check(m.out, g.Sets[set])
		rec.Rounds++
		rec.InputSets = append(rec.InputSets, set)
		rec.Attempted += len(m.out.cells)
		rec.Failed += failed
		rec.Reasons = append(rec.Reasons, reasons...)
		rec.RoundWall = append(rec.RoundWall, m.wall.Seconds())
		simPerCPU = append(simPerCPU, ratio(m.sim.Seconds(), m.cpu.Seconds()))
		lat = append(lat, m.lat...)
		mallocs += m.mallocs
		bytes += m.bytes
		// Stop before a round that would overrun the budget, once the
		// percentiles have their samples (or rounds stopped yielding any).
		if hostNow().Sub(start)+m.wall > budget && (len(lat) >= minCells || len(m.lat) == 0) {
			break
		}
	}
	cells := float64(len(lat))
	latMS := durationsMS(lat)
	rec.Samples = len(lat)
	rec.Correct = true
	rec.Metrics = map[string]metric{
		"setup_s":           {setup, "s"},
		"wall_s":            {median(rec.RoundWall), "s"},
		"sim_s_per_cpu_s":   {median(simPerCPU), "s/s"},
		"cell_ms.p50":       {percentile(latMS, 0.5), "ms"},
		"cell_ms.p90":       {percentile(latMS, 0.9), "ms"},
		"allocs_per_cell":   {ratio(float64(mallocs), cells), "count"},
		"alloc_mb_per_cell": {ratio(float64(bytes)/1e6, cells), "MB"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
	}
	return nil
}

func emit(stdout io.Writer, rec *record, outPath string) error {
	fmt.Fprintf(stdout, "host: %d/%d CPUs (GOMAXPROCS/NumCPU), %s, %s, kernel %s\n",
		rec.Host.GOMAXPROCS, rec.Host.NumCPU, rec.Host.CPUModel, rec.Host.GoVersion, rec.Host.Kernel)
	fmt.Fprintf(stdout, "workload %s seed %d: %d round(s) over input sets %v, %d workers, %d cell samples, %d/%d cells failed (error_rate %.4g)\n",
		rec.Workload, rec.Seed, rec.Rounds, rec.InputSets, rec.Workers, rec.Samples, rec.Failed, rec.Attempted,
		ratio(float64(rec.Failed), float64(rec.Attempted)))
	for _, why := range rec.Reasons {
		fmt.Fprintln(stdout, "  failure:", why)
	}
	for _, n := range metricNames(rec.Metrics) {
		m := rec.Metrics[n]
		fmt.Fprintf(stdout, "  %-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if outPath != "" {
		f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	last, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", last)
	return err
}

// recordGoldens runs every input set of the named workloads untraced,
// checks that the traced session reproduces each output, and writes
// golden/<workload>.json.
func recordGoldens(stdout io.Writer, dir string, names []string, workers int) error {
	for _, name := range names {
		w, err := newWorkload(name)
		if err != nil {
			return err
		}
		if err := w.setup(workers); err != nil {
			return err
		}
		g := goldenFile{Workload: name}
		for k := 0; k < inputSets; k++ {
			r, err := w.prepare(k, nil)
			if err != nil {
				return err
			}
			m := measureRound(r, workers)
			set := goldenSet{Cells: m.out.cells, Report: m.out.report}
			if failed, reasons := check(m.out, set); failed > 0 {
				return fmt.Errorf("%s input set %d: %d cells failed: %v", name, k, failed, reasons)
			}
			rt, err := w.prepare(k, newSpanTracer())
			if err != nil {
				return err
			}
			to, _ := rt.traced(workers, newSpanTracer())
			if failed, reasons := check(to, set); failed > 0 {
				return fmt.Errorf("%s input set %d: traced run differs in %d cells: %v", name, k, failed, reasons)
			}
			g.Sets = append(g.Sets, set)
			fmt.Fprintf(stdout, "%s input set %d: %d cells recorded in %.1fs, traced run agrees\n", name, k, len(set.Cells), m.wall.Seconds())
		}
		if err := writeGolden(dir, g); err != nil {
			return err
		}
	}
	return nil
}
