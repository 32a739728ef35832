package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"time"
)

// Fingerprint returns the SHA-256 hex digest of a canonical binary
// encoding of every field of the run log — header strings, every
// telemetry float, every event record, every condition span. Two logs
// fingerprint equal iff they are bit-identical, which is what makes
// the digest a refactor safety net: a golden set of fingerprints
// recorded before a change to the run machinery pins the exact
// simulated trajectories after it (see internal/session's equivalence
// test and `make fingerprint`).
func Fingerprint(l *RunLog) string {
	h := &fpWriter{h: sha256.New()}
	h.str(l.Subject)
	h.str(l.Scenario)
	h.str(l.RunType)
	h.u64(uint64(l.Seed))

	h.u64(uint64(len(l.Ego)))
	for _, e := range l.Ego {
		h.dur(e.Time)
		h.u64(e.Frame)
		h.f64(e.X, e.Y, e.Z, e.Vx, e.Vy, e.Vz, e.Ax, e.Ay, e.Az)
		h.f64(e.Station, e.Lateral, e.Speed, e.Throttle, e.Steer, e.Brake)
	}
	h.u64(uint64(len(l.Others)))
	for _, o := range l.Others {
		h.u64(uint64(o.Actor))
		h.dur(o.Time)
		h.u64(o.Frame)
		h.f64(o.Distance, o.X, o.Y, o.Z, o.Vx, o.Vy, o.Vz, o.Station, o.Lateral, o.Speed)
	}
	h.u64(uint64(len(l.Collisions)))
	for _, c := range l.Collisions {
		h.dur(c.Time)
		h.u64(c.Frame)
		h.u64(uint64(c.Actor))
		h.u64(uint64(c.Other))
		h.f64(c.SpeedA, c.SpeedB)
		h.str(c.Label)
	}
	h.u64(uint64(len(l.LaneInvasions)))
	for _, li := range l.LaneInvasions {
		h.dur(li.Time)
		h.u64(li.Frame)
		h.u64(uint64(li.Actor))
		h.str(li.Kind)
		h.str(li.LaneID)
		h.f64(li.Lateral)
		h.str(li.Label)
	}
	h.u64(uint64(len(l.Faults)))
	for _, f := range l.Faults {
		h.dur(f.Time)
		h.str(f.Link)
		h.str(f.Action)
		h.str(f.Desc)
		h.str(f.Label)
	}
	h.u64(uint64(len(l.ConditionSpans)))
	for _, s := range l.ConditionSpans {
		h.str(s.Label)
		h.dur(s.From)
		h.dur(s.To)
	}
	h.flush()
	return hex.EncodeToString(h.h.Sum(nil))
}

// fpWriter stages Fingerprint's canonical encoding in a buffer held
// beside the hash and writes it in blocks. A per-field [8]byte handed
// to hash.Hash's Write would escape to the heap on every call; staging
// keeps the whole encoding to the writer's one allocation.
type fpWriter struct {
	h   hash.Hash
	n   int
	buf [512]byte
}

func (w *fpWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

func (w *fpWriter) u64(v uint64) {
	if w.n+8 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		c := copy(w.buf[w.n:], s)
		w.n += c
		s = s[c:]
	}
}

func (w *fpWriter) dur(d time.Duration) { w.u64(uint64(d)) }

// f64 hashes the exact IEEE-754 bit patterns, so fingerprints
// distinguish values that print identically (and even -0 from +0).
func (w *fpWriter) f64(vs ...float64) {
	for _, v := range vs {
		w.u64(math.Float64bits(v))
	}
}
