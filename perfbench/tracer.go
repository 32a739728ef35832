package main

import (
	"time"

	"teledrive/internal/simclock"
)

// layer names one per-layer self-time bucket of the traced run.
type layer int

// Layers, in report order. The fire-owning layers (worldStep, downRx,
// upRx, driverTick) claim the residual of the clock fire they run in;
// cameraTx and transportTimer own the fires no seam claims.
const (
	cameraTx layer = iota
	downRx
	stationRx
	upRx
	plantRx
	uplinkTx
	transportTimer
	worldStep
	driverTick
	traceSample
	supervisor
	clockLoop
	digest
	analyze
	gradePoint
	scenarioBuild
	sessionWire
	campaignPlan
	campaignAssemble
	nLayers

	// fire is the open span of one clock fire while its owner is still
	// unknown; it never accumulates time itself.
	fire layer = -1
	// unclaimed marks a fire no seam has claimed yet.
	unclaimed layer = -2
)

// layerNames are the metric stems, "<module>.<what>"; the report adds
// "_ms" and "_calls".
var layerNames = [nLayers]string{
	cameraTx:         "bridge.camera_tx",
	downRx:           "transport.down_rx",
	stationRx:        "bridge.station_rx",
	upRx:             "transport.up_rx",
	plantRx:          "bridge.plant_rx",
	uplinkTx:         "bridge.uplink_tx",
	transportTimer:   "transport.timer",
	worldStep:        "world.step",
	driverTick:       "driver.tick",
	traceSample:      "trace.sample",
	supervisor:       "session.supervisor",
	clockLoop:        "simclock.loop",
	digest:           "rds.digest",
	analyze:          "core.analyze",
	gradePoint:       "validity.grade",
	scenarioBuild:    "scenario.build",
	sessionWire:      "session.wire",
	campaignPlan:     "campaign.plan",
	campaignAssemble: "campaign.assemble",
}

// claimsFire reports whether a span of layer l, opened directly inside
// a clock fire, makes l the owner of that fire's residual time: the
// physics tick callback, the two link receivers, and the station's
// control loop.
func (l layer) claimsFire() bool {
	return l == worldStep || l == downRx || l == upRx || l == driverTick
}

type openSpan struct {
	l     layer
	start time.Time
	child time.Duration // time covered by closed child spans
}

// spanTracer accumulates per-layer self time for one worker. Spans
// nest: a span's self time is its duration minus its children's. It is
// not safe for concurrent use; each traced worker owns one.
type spanTracer struct {
	self  [nLayers]time.Duration
	calls [nLayers]uint64
	fires uint64

	open  []openSpan
	claim layer
	now   func() time.Time
}

func newSpanTracer() *spanTracer {
	return &spanTracer{now: hostNow, claim: unclaimed}
}

// begin opens a span of layer l.
func (t *spanTracer) begin(l layer) {
	if l.claimsFire() && len(t.open) > 0 && t.open[len(t.open)-1].l == fire {
		t.claim = l
	}
	t.open = append(t.open, openSpan{l: l, start: t.now()})
}

// end closes the innermost span and charges its self time.
func (t *spanTracer) end() {
	n := len(t.open) - 1
	s := t.open[n]
	t.open = t.open[:n]
	d := t.now().Sub(s.start)
	t.self[s.l] += d - s.child
	t.calls[s.l]++
	if n > 0 {
		t.open[n-1].child += d
	}
}

// step fires the clock's earliest timer and charges the fire's residual
// — its time outside every seam span opened inside it — to its owner:
// the claiming seam's layer if one claimed it, else the camera when the
// fire changed the camera probe (frames sent + dropped), else the
// transport timers (retransmission). Unclaimed fires count as calls of
// their owner; claimed ones were already counted by the seam. It
// reports false, charging nothing, when no timer is pending.
func (t *spanTracer) step(c *simclock.Clock, camera func() uint64) bool {
	if c.PendingTimers() == 0 {
		return false
	}
	t.claim = unclaimed
	before := camera()
	t.open = append(t.open, openSpan{l: fire, start: t.now()})
	c.Step()
	n := len(t.open) - 1
	s := t.open[n]
	t.open = t.open[:n]
	d := t.now().Sub(s.start)
	owner := t.claim
	if owner == unclaimed {
		owner = transportTimer
		if camera() != before {
			owner = cameraTx
		}
		t.calls[owner]++
	}
	t.self[owner] += d - s.child
	t.fires++
	if n > 0 {
		t.open[n-1].child += d
	}
	t.claim = unclaimed
	return true
}

// timed runs fn inside a span of layer l.
func (t *spanTracer) timed(l layer, fn func()) {
	t.begin(l)
	fn()
	t.end()
}

// merge adds another worker's totals.
func (t *spanTracer) merge(o *spanTracer) {
	for l := range t.self {
		t.self[l] += o.self[l]
		t.calls[l] += o.calls[l]
	}
	t.fires += o.fires
}

// total is the sum of all self times.
func (t *spanTracer) total() time.Duration {
	var s time.Duration
	for _, d := range t.self {
		s += d
	}
	return s
}
