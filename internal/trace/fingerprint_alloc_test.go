//go:build !race

package trace

import (
	"testing"
	"time"
)

// TestFingerprintAllocCeiling pins Fingerprint's allocations to a
// constant independent of the log's length: the hash, its writer, the
// sum and the hex string. Per-field allocations would scale with the
// samples (a 1000-sample log is tens of thousands of fields).
func TestFingerprintAllocCeiling(t *testing.T) {
	log := &RunLog{Subject: "T5", Scenario: "follow-vehicle", RunType: "faulty", Seed: 7}
	for i := range 1000 {
		now := time.Duration(i) * 20 * time.Millisecond
		log.Ego = append(log.Ego, EgoRecord{Time: now, Frame: uint64(i), X: float64(i), Speed: 8})
		log.Others = append(log.Others, OtherRecord{Actor: 2, Time: now, Frame: uint64(i), Distance: 20})
	}
	log.Collisions = []CollisionRecord{{Time: time.Second, Actor: 1, Other: 2, Label: "50ms"}}
	log.LaneInvasions = []LaneRecord{{Time: time.Second, Actor: 1, Kind: "solid", LaneID: "d1", Label: "50ms"}}
	log.Faults = []FaultRecord{{Time: time.Second, Link: "downlink", Action: "add", Desc: "delay 50ms", Label: "50ms"}}
	log.ConditionSpans = []ConditionSpan{{Label: "50ms", From: time.Second, To: 2 * time.Second}}

	const ceiling = 8
	if got := testing.AllocsPerRun(5, func() { _ = Fingerprint(log) }); got > ceiling {
		t.Fatalf("Fingerprint allocates %.0f times per call on a %d-sample log, ceiling %d", got, len(log.Ego), ceiling)
	}
}
