package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// layerSumTolerance bounds how far the per-layer self times may sum
// from the traced wall time before the attribution is reported broken.
const layerSumTolerance = 0.05

// runTracedMode runs input set inputSet(seed, 0) once untraced (for the
// executor and GC shares and the overhead baseline) and once through
// the traced session, and reports the per-layer metrics. The traced
// cells must reproduce the golden outputs; if any differs, the timings
// are withheld and the run is not correct.
func runTracedMode(rec *record, w workload, g *goldenFile) error {
	set := inputSet(rec.Seed, 0)
	if err := w.setup(rec.Workers); err != nil {
		return err
	}
	r, err := w.prepare(set, nil)
	if err != nil {
		return err
	}
	m := measureRound(r, rec.Workers)
	failed, reasons := check(m.out, g.Sets[set])

	rt := newSpanTracer()
	tracedRound, err := w.prepare(set, rt)
	if err != nil {
		return err
	}
	runtime.GC()
	start := hostNow()
	to, ws := tracedRound.traced(rec.Workers, rt)
	tracedWall := hostNow().Sub(start)
	tfailed, treasons := check(to, g.Sets[set])

	// rt holds only round-level spans (plan, assemble, grading), which
	// run outside the workers' cells; the traced wall the layer sum is
	// checked against is the cells' host time plus theirs.
	cellWall := rt.total()
	tr := newSpanTracer()
	tr.merge(rt)
	var tl tally
	for _, wk := range ws {
		tr.merge(wk.tr)
		tl.merge(&wk.tl)
		cellWall += wk.wall
	}

	rec.Rounds = 1
	rec.InputSets = []int{set}
	rec.Samples = len(m.lat)
	rec.Attempted = len(m.out.cells) + len(to.cells)
	rec.Failed = failed + tfailed
	rec.Reasons = append(reasons, treasons...)
	rec.Metrics = map[string]metric{}
	put := func(name string, v float64, unit string) { rec.Metrics[name] = metric{v, unit} }

	busy := time.Duration(0)
	for _, d := range m.lat {
		busy += d
	}
	put("executor.idle_share", 1-ratio(busy.Seconds(), m.wall.Seconds()*float64(rec.Workers)), "ratio")
	put("runtime.gc_cpu_share", m.gcShare, "ratio")
	put("runtime.gc_cycles", float64(m.gcCycles), "count")
	put("tracing.overhead_ratio", ratio(tracedWall.Seconds(), m.wall.Seconds()), "ratio")
	put("tracing.cells", float64(tl.cells), "count")
	sumRatio := ratio(tr.total().Seconds(), cellWall.Seconds())
	put("tracing.layer_sum_ratio", sumRatio, "ratio")

	inert := tfailed == 0
	rec.Correct = inert && math.Abs(sumRatio-1) <= layerSumTolerance
	if !rec.Correct {
		rec.Reasons = append(rec.Reasons, fmt.Sprintf("traced run: %d cells differ from golden, layer sum ratio %.4f", tfailed, sumRatio))
	}
	if inert {
		for l := layer(0); l < nLayers; l++ {
			put(layerNames[l]+"_ms", ms(tr.self[l]), "ms")
			put(layerNames[l]+"_calls", float64(tr.calls[l]), "count")
		}
	}
	putCounts(put, tr, &tl)
	return nil
}

// putCounts reports the simulated counters of the traced cells.
func putCounts(put func(string, float64, string), tr *spanTracer, tl *tally) {
	c := func(name string, v uint64) { put(name, float64(v), "count") }
	c("simclock.timer_fires", tr.fires)
	c("world.ticks", tl.worldTicks)
	c("bridge.frames_sent", tl.srv.FramesSent)
	c("bridge.frames_dropped", tl.srv.FramesDropped)
	c("bridge.frames_received", tl.cli.FramesReceived)
	c("bridge.frames_stale", tl.cli.FramesStale)
	c("bridge.deltas_sent", tl.srv.DeltasSent)
	c("bridge.controls_dropped", tl.cli.ControlsDropped)
	c("bridge.events_dropped", tl.srv.EventsDropped)
	c("bridge.protocol_errors", tl.srv.ProtocolErrors+tl.cli.ProtocolErrors)
	c("transport.fragments_sent", tl.fragments)
	c("transport.retransmits", tl.retransmits)
	c("transport.corrupt_dropped", tl.corrupt)
	c("transport.window_rejects", tl.windowRej)
	c("transport.out_of_order_held", tl.outOfOrder)
	c("transport.acks_sent", tl.acksSent)
	c("netem.packets_sent", tl.netSent)
	c("netem.bytes_sent", tl.netBytes)
	c("netem.lost", tl.netLost)
	c("netem.tail_dropped", tl.netTail)
	put("bridge.frame_delivery_ratio", ratio(float64(tl.cli.FramesReceived), float64(tl.srv.FramesSent)), "ratio")
	put("transport.retransmit_ratio", ratio(float64(tl.retransmits), float64(tl.fragments)), "ratio")
	lat := durationsMS(tl.frameLatency)
	p50, p90 := 0.0, 0.0
	if len(lat) > 0 {
		p50, p90 = percentile(lat, 0.5), percentile(lat, 0.9)
	}
	put("bridge.frame_latency_sim_ms.p50", p50, "ms")
	put("bridge.frame_latency_sim_ms.p90", p90, "ms")
}
