package bridge

import (
	"errors"

	"teledrive/internal/sensors"
)

// Display is the operator station's frame display: it decodes full and
// delta frames, promotes only monotonically newer frames, and spaces
// out keyframe requests while the diff chain is broken. Both station
// implementations hold one — Client on the simulated clock, the hub's
// StationSession on the wall clock behind its mutex — and keep only
// what differs between them: how a displayed frame is timestamped, how
// they lock, and how a keyframe request travels. Not safe for
// concurrent use; the per-frame path does not allocate.
type Display struct {
	// latest is the displayed view; decodeView double-buffers the
	// decode. Each frame is decoded into decodeView and, on acceptance,
	// swapped with latest, so the displaced view's actor backing
	// becomes the next decode target. A view handed out is therefore
	// stable only until the next accepted frame — consumers that look
	// further back copy what they keep (the driver's reaction buffer
	// does).
	latest      sensors.WorldView
	latestValid bool
	decodeView  sensors.WorldView
	// resyncStreak spaces out keyframe requests while the diff chain is
	// broken; it resets whenever a frame is accepted.
	resyncStreak int
	ins          *ClientInstruments // optional telemetry handles; nil = uninstrumented
}

// Frame returns the displayed world view. ok is false until the first
// frame displays.
func (d *Display) Frame() (view sensors.WorldView, ok bool) {
	return d.latest, d.latestValid
}

// Show processes the body of one MsgFrame or MsgDeltaFrame, counting
// into stats. shown reports that a newer frame now displays (its
// caller timestamps it); resync reports that the diff chain broke and
// the caller should ask the plant for a keyframe now. A frame no newer
// than the displayed one is discarded as stale — its decode target is
// simply reused by the next frame.
func (d *Display) Show(t MsgType, body []byte, stats *ClientStats) (shown, resync bool) {
	if t == MsgDeltaFrame {
		// A diff applies against the displayed view; a chain break —
		// nothing displayed yet, or the base frame was lost on the way —
		// asks the plant to restart with a keyframe.
		if !d.latestValid {
			stats.DeltaResyncs++
			return false, d.breakChain()
		}
		if err := sensors.ApplyWorldViewDelta(&d.decodeView, d.latest, body); err != nil {
			if errors.Is(err, sensors.ErrDeltaBaseMismatch) {
				stats.DeltaResyncs++
				return false, d.breakChain()
			}
			stats.ProtocolErrors++
			return false, false
		}
		stats.DeltasApplied++
	} else if err := sensors.UnmarshalWorldViewInto(&d.decodeView, body); err != nil {
		stats.ProtocolErrors++
		return false, false
	}
	stats.FramesReceived++
	if d.ins != nil {
		d.ins.FramesReceived.Inc()
	}
	if d.latestValid && d.decodeView.Frame <= d.latest.Frame {
		stats.FramesStale++
		if d.ins != nil {
			d.ins.FramesStale.Inc()
		}
		return false, false
	}
	d.latest, d.decodeView = d.decodeView, d.latest
	d.latestValid = true
	d.resyncStreak = 0
	return true, false
}

// breakChain counts one broken diff and reports whether to send a
// keyframe request. Under sustained loss every broken diff would
// otherwise emit one, and the requests ride the same lossy uplink — so
// the first break asks immediately and persistence retries every
// eighth.
func (d *Display) breakChain() bool {
	d.resyncStreak++
	return d.resyncStreak == 1 || d.resyncStreak%8 == 0
}
