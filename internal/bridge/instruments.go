package bridge

import (
	"teledrive/internal/telemetry"
)

// ServerInstruments is the vehicle subsystem's native telemetry: the
// frame/control counters the camera and control paths increment
// alongside ServerStats. Handles are pre-bound; the per-frame path adds
// only nil-checked atomic operations.
type ServerInstruments struct {
	FramesSent      *telemetry.Counter
	FramesDropped   *telemetry.Counter
	DeltasSent      *telemetry.Counter
	PayloadBytes    *telemetry.Counter
	ControlsApplied *telemetry.Counter
	EventsSent      *telemetry.Counter
	EventsDropped   *telemetry.Counter
}

// NewServerInstruments binds the server instrument set in reg.
func NewServerInstruments(reg *telemetry.Registry) *ServerInstruments {
	frames := reg.CounterVec("teledrive_bridge_frames_total",
		"Camera frames at the vehicle-side sender, by outcome (sent/dropped).", "outcome")
	return &ServerInstruments{
		FramesSent:    frames.With("sent"),
		FramesDropped: frames.With("dropped"),
		DeltasSent: reg.Counter("teledrive_bridge_frames_delta_total",
			"Frames shipped as keyframe-relative diffs (subset of sent)."),
		PayloadBytes: reg.Counter("teledrive_bridge_frame_payload_bytes_total",
			"Serialized frame payload bytes handed to the transport."),
		ControlsApplied: reg.Counter("teledrive_bridge_controls_applied_total",
			"Driving commands applied to the ego plant."),
		EventsSent: reg.Counter("teledrive_bridge_events_sent_total",
			"Collision/lane-invasion sensor events streamed to the station."),
		EventsDropped: reg.Counter("teledrive_bridge_events_dropped_total",
			"Sensor events lost to a full send window or a marshal failure."),
	}
}

// NewServerInstrumentsSession binds a hub-hosted server's instrument
// set under per-session labels. The metric names are distinct from the
// unlabeled teledrive_bridge_* family — the registry pins one label
// schema per name, and the in-process run path binds the unlabeled
// family in the same registry. Label cardinality is the caller's
// problem: hubs label by session *name* (scenario or operator handle),
// not by unbounded numeric id.
func NewServerInstrumentsSession(reg *telemetry.Registry, session string) *ServerInstruments {
	frames := reg.CounterVec("teledrive_hub_frames_total",
		"Hub session camera frames at the sender, by session and outcome.", "session", "outcome")
	events := reg.CounterVec("teledrive_hub_events_total",
		"Hub session sensor events, by session and outcome.", "session", "outcome")
	return &ServerInstruments{
		FramesSent:    frames.With(session, "sent"),
		FramesDropped: frames.With(session, "dropped"),
		DeltasSent: reg.CounterVec("teledrive_hub_frames_delta_total",
			"Hub session frames shipped as diffs.", "session").With(session),
		PayloadBytes: reg.CounterVec("teledrive_hub_frame_payload_bytes_total",
			"Hub session frame payload bytes handed to the transport.", "session").With(session),
		ControlsApplied: reg.CounterVec("teledrive_hub_controls_applied_total",
			"Hub session driving commands applied to the ego plant.", "session").With(session),
		EventsSent:    events.With(session, "sent"),
		EventsDropped: events.With(session, "dropped"),
	}
}

// SetInstruments attaches (or detaches, with nil) the server's
// telemetry handles. Call at wiring time.
func (s *Server) SetInstruments(ins *ServerInstruments) { s.ins = ins }

// ClientInstruments is the operator station's native telemetry.
type ClientInstruments struct {
	FramesReceived  *telemetry.Counter
	FramesStale     *telemetry.Counter
	ControlsSent    *telemetry.Counter
	ControlsDropped *telemetry.Counter
}

// NewClientInstruments binds the client instrument set in reg.
func NewClientInstruments(reg *telemetry.Registry) *ClientInstruments {
	controls := reg.CounterVec("teledrive_bridge_controls_total",
		"Driving commands at the station-side sender, by outcome (sent/dropped).", "outcome")
	return &ClientInstruments{
		FramesReceived: reg.Counter("teledrive_bridge_frames_received_total",
			"Frames received at the operator station."),
		FramesStale: reg.Counter("teledrive_bridge_frames_stale_total",
			"Frames discarded at the station for arriving older than the displayed one."),
		ControlsSent:    controls.With("sent"),
		ControlsDropped: controls.With("dropped"),
	}
}

// SetInstruments attaches (or detaches, with nil) the client's
// telemetry handles. Call at wiring time. The client's display holds
// them: it counts the frames, the client the controls.
func (c *Client) SetInstruments(ins *ClientInstruments) { c.disp.ins = ins }
