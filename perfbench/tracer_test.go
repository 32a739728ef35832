package main

import (
	"testing"
	"time"

	"teledrive/internal/simclock"
)

// fakeTime is a time source that advances only when told to, so span
// arithmetic can be checked exactly.
type fakeTime struct{ t time.Time }

func (f *fakeTime) now() time.Time        { return f.t }
func (f *fakeTime) spend(d time.Duration) { f.t = f.t.Add(d) }
func (f *fakeTime) in(tr *spanTracer, l layer, d time.Duration, inner func()) {
	tr.begin(l)
	f.spend(d)
	if inner != nil {
		inner()
	}
	tr.end()
}

// TestStepAttribution drives a hand-built clock whose timers spend known
// host times inside and outside seam spans, and checks that every fire
// is charged to the right layer with the right self time.
func TestStepAttribution(t *testing.T) {
	ft := &fakeTime{t: time.Unix(0, 0)}
	tr := newSpanTracer()
	tr.now = ft.now
	clock := simclock.New()
	var frames uint64
	camera := func() uint64 { return frames }

	// t=1ms: a physics fire — 3µs stepping the world outside any seam,
	// then the tick callback (claims the fire) with 2µs of its own, a
	// 5µs recorder sample and a 7µs supervisor call inside it.
	clock.ScheduleAt(time.Millisecond, func(time.Duration) {
		ft.spend(3 * time.Microsecond)
		ft.in(tr, worldStep, 2*time.Microsecond, func() {
			ft.in(tr, traceSample, 5*time.Microsecond, nil)
			ft.in(tr, supervisor, 7*time.Microsecond, nil)
		})
	})
	// t=2ms: a camera fire — no seam, but it sends a frame.
	clock.ScheduleAt(2*time.Millisecond, func(time.Duration) {
		ft.spend(11 * time.Microsecond)
		frames++
	})
	// t=3ms: a link delivery — 1µs of netem bookkeeping around the
	// downlink receiver (4µs) with the station handler (6µs) inside.
	clock.ScheduleAt(3*time.Millisecond, func(time.Duration) {
		ft.spend(time.Microsecond)
		ft.in(tr, downRx, 4*time.Microsecond, func() {
			ft.in(tr, stationRx, 6*time.Microsecond, nil)
		})
	})
	// t=4ms: a retransmission timer — nothing claims it, no frame.
	clock.ScheduleAt(4*time.Millisecond, func(time.Duration) {
		ft.spend(13 * time.Microsecond)
	})

	tr.begin(clockLoop)
	for tr.step(clock, camera) {
		ft.spend(100 * time.Microsecond) // loop bookkeeping between fires
	}
	tr.end()

	want := map[layer]time.Duration{
		worldStep:      5 * time.Microsecond,
		traceSample:    5 * time.Microsecond,
		supervisor:     7 * time.Microsecond,
		cameraTx:       11 * time.Microsecond,
		downRx:         5 * time.Microsecond,
		stationRx:      6 * time.Microsecond,
		transportTimer: 13 * time.Microsecond,
		clockLoop:      400 * time.Microsecond,
	}
	wantCalls := map[layer]uint64{
		worldStep: 1, traceSample: 1, supervisor: 1, cameraTx: 1,
		downRx: 1, stationRx: 1, transportTimer: 1, clockLoop: 1,
	}
	for l := layer(0); l < nLayers; l++ {
		if tr.self[l] != want[l] {
			t.Errorf("%s self = %v, want %v", layerNames[l], tr.self[l], want[l])
		}
		if tr.calls[l] != wantCalls[l] {
			t.Errorf("%s calls = %d, want %d", layerNames[l], tr.calls[l], wantCalls[l])
		}
	}
	if tr.fires != 4 {
		t.Errorf("fires = %d, want 4", tr.fires)
	}
	if total, wall := tr.total(), ft.t.Sub(time.Unix(0, 0)); total != wall {
		t.Errorf("self times sum to %v, want the whole traced wall %v", total, wall)
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
}

// TestNestedSeamDoesNotClaim checks that only a seam opened directly
// inside a fire claims it: a recorder sample during the world step (a
// collision event) leaves the fire to the tick callback that follows.
func TestNestedSeamDoesNotClaim(t *testing.T) {
	ft := &fakeTime{t: time.Unix(0, 0)}
	tr := newSpanTracer()
	tr.now = ft.now
	clock := simclock.New()
	clock.ScheduleAt(time.Millisecond, func(time.Duration) {
		ft.in(tr, traceSample, 2*time.Microsecond, nil) // collision event mid-step
		ft.spend(3 * time.Microsecond)
		ft.in(tr, worldStep, time.Microsecond, nil)
	})
	tr.step(clock, func() uint64 { return 0 })
	if got := tr.self[worldStep]; got != 4*time.Microsecond {
		t.Errorf("world.step self = %v, want 4µs (1µs callback + 3µs residual)", got)
	}
	if got := tr.self[traceSample]; got != 2*time.Microsecond {
		t.Errorf("trace.sample self = %v, want 2µs", got)
	}
	if tr.calls[transportTimer] != 0 || tr.calls[cameraTx] != 0 {
		t.Errorf("a claimed fire was also counted as an unclaimed one")
	}
}
