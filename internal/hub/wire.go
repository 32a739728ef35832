// Hub wire protocol: one TCP stream multiplexes every session a
// station drives. Each message is one transport stream frame
// (transport.WriteStreamFrame: a 4-byte big-endian length, then a
// CRC-checked EncodeFrame frame) whose Seq field carries the session id
// and whose payload is a kind byte plus the body — bridge traffic is
// relayed verbatim under kindBridge, and a small set of JSON control
// messages (join/joined/leave/end/error) manages the session
// lifecycle. Like campaignd's, the read side treats the stream as
// hostile territory and must never panic (FuzzHubWire).
package hub

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"teledrive/internal/netem"
	"teledrive/internal/transport"
)

// Message kinds. Bridge relay traffic is low-valued; control messages
// sit at 0xA0+ so a new bridge payload class can never collide.
const (
	kindBridge byte = 0x01 // either direction: raw bridge message for/from the session

	kindJoin   byte = 0xA0 // station → hub: JSON JoinRequest (session id 0)
	kindJoined byte = 0xA1 // hub → station: JSON JoinReply (session id assigned)
	kindLeave  byte = 0xA2 // station → hub: detach the session
	kindEnd    byte = 0xA3 // hub → station: JSON SessionEnd (terminal)
	kindError  byte = 0xA4 // hub → station: JSON WireError (connection-level)
)

// JoinRequest asks the hub to host a session. Joins on one connection
// are answered in request order (the station serializes them).
type JoinRequest struct {
	// Scenario names a library scenario (scenario.ByName).
	Scenario string `json:"scenario"`
	// Name labels the session in hub telemetry; empty = scenario name.
	Name string `json:"name,omitempty"`
	// Seed decorrelates the session's network randomness.
	Seed int64 `json:"seed"`
	// Delta enables keyframe+diff world-view streaming downlink.
	Delta bool `json:"delta,omitempty"`
	// KeyframeEvery bounds the diff chain (0 = bridge default).
	KeyframeEvery int `json:"keyframe_every,omitempty"`
	// FrameIntervalNS overrides the camera frame period (0 = default).
	FrameIntervalNS int64 `json:"frame_interval_ns,omitempty"`
	// VideoBytes overrides the synthetic encoded-video payload per full
	// frame (0 = sensors.DefaultVideoFrameBytes). It sizes the frame on
	// the session's emulated link — fragments, loss exposure, queueing —
	// but is never sent to the station: the relay carries it as a
	// length in the world-view header. Fragile links want this small:
	// every MTU's worth is one more fragment to lose.
	VideoBytes int `json:"video_bytes,omitempty"`
	// VideoDeltaBytes overrides the synthetic video residual delta
	// frames put on the emulated link, likewise as a length only
	// (0 = sensors.DefaultVideoDeltaBytes).
	VideoDeltaBytes int `json:"video_delta_bytes,omitempty"`
	// Rule, when non-nil, is a persistent netem impairment applied to
	// both directions of the session's emulated link.
	Rule *netem.Rule `json:"rule,omitempty"`
	// DurationNS bounds the session's simulated lifetime (0 = the
	// scenario timeout).
	DurationNS int64 `json:"duration_ns,omitempty"`
	// Datagram selects the unreliable datagram channel instead of the
	// default TCP-like reliable one.
	Datagram bool `json:"datagram,omitempty"`
}

// JoinReply answers a JoinRequest.
type JoinReply struct {
	SessionID uint64 `json:"session_id"`
	Scenario  string `json:"scenario,omitempty"`
	Error     string `json:"error,omitempty"`
}

// SessionEnd reports a session's terminal state.
type SessionEnd struct {
	SessionID uint64 `json:"session_id"`
	// Reason is "completed" (duration reached), "killed" (connection or
	// hub shutdown), "left" (station detached), or "error".
	Reason    string `json:"reason"`
	SimTimeNS int64  `json:"sim_time_ns"`
	// Terminal bridge counters, as the plant saw them.
	FramesSent    uint64 `json:"frames_sent"`
	FramesDropped uint64 `json:"frames_dropped"`
	DeltasSent    uint64 `json:"deltas_sent"`
	EventsSent    uint64 `json:"events_sent"`
	EventsDropped uint64 `json:"events_dropped"`
	Controls      uint64 `json:"controls_applied"`
}

// WireError is a connection-level failure report.
type WireError struct {
	Error string `json:"error"`
}

// ErrHubProtocol marks malformed hub wire input. The hub counts these
// and closes the connection.
var ErrHubProtocol = errors.New("hub: protocol error")

func protocolErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrHubProtocol, fmt.Sprintf(format, args...))
}

// wireMsg is one decoded hub message.
type wireMsg struct {
	Session uint64
	Kind    byte
	Body    []byte // freshly allocated per read; safe to retain
}

// maxBody bounds a hub message body: the largest bridge frame is a full
// world view (transport.MaxPayload already bounds what the relay can
// carry), control JSON is tiny. One byte of the frame payload goes to
// the kind tag.
const maxBody = transport.MaxPayload - 1

// wireWriter frames messages onto a stream. Not safe for concurrent
// use; callers serialize with their own mutex.
type wireWriter struct {
	w *bufio.Writer
}

func newWireWriter(w io.Writer) *wireWriter {
	return &wireWriter{w: bufio.NewWriter(w)}
}

// writeMsg frames one message and flushes. body is not retained.
func (ww *wireWriter) writeMsg(session uint64, kind byte, body []byte) error {
	if len(body) > maxBody {
		return protocolErrf("body %d bytes exceeds %d", len(body), maxBody)
	}
	payload := make([]byte, 1+len(body))
	payload[0] = kind
	copy(payload[1:], body)
	if err := transport.WriteStreamFrame(ww.w, session, payload); err != nil {
		return err
	}
	return ww.w.Flush()
}

// readMsg reads one hub message from r. io.EOF marks a clean close at a
// message boundary; every malformed input returns an ErrHubProtocol-
// wrapped error.
func readMsg(r *bufio.Reader) (wireMsg, error) {
	session, payload, err := transport.ReadStreamFrame(r, 1+maxBody)
	if err != nil {
		if err == io.EOF {
			return wireMsg{}, io.EOF
		}
		return wireMsg{}, fmt.Errorf("%w: %w", ErrHubProtocol, err)
	}
	return wireMsg{Session: session, Kind: payload[0], Body: payload[1:]}, nil
}

// newReader wraps a served connection for readMsg.
func newReader(r io.Reader) *bufio.Reader { return bufio.NewReader(r) }

// isEOF reports a clean close at a message boundary. Deliberately not
// errors.Is: a stream truncated mid-frame wraps io.EOF inside an
// ErrHubProtocol error, and that is hostile input, not a clean close.
func isEOF(err error) bool { return err == io.EOF }
