// Package campaignd is the distributed campaign service: a coordinator
// process that serves a planned cell list to worker processes over TCP
// and merges their streamed results into the exact in-process campaign
// aggregation.
//
// The design exploits the plan/execute split (DESIGN.md §7): a campaign
// plan is a pure function of its Spec, so both sides rebuild the
// identical plan locally and only cell *indices* and per-cell outcomes
// cross the wire. A plan digest guards the assumption; a JSONL journal
// of completed cells makes a killed coordinator resumable; a lease
// state machine with bounded retry makes worker death survivable; and
// first-write-wins result acceptance makes duplicated or re-executed
// cells harmless. Final tables are bit-identical to
// `campaign -workers N` — enforced by the equivalence golden in
// testdata and the chaos suite.
package campaignd

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"teledrive/internal/transport"
)

// Wire message types. The protocol is a strict request/response-free
// exchange of typed messages; either side may close the connection at
// any point and the coordinator's lease machinery absorbs the loss.
const (
	msgHello     = "hello"  // worker → coordinator: identity + capacity
	msgPlan      = "plan"   // coordinator → worker: campaign spec + plan digest
	msgLease     = "lease"  // coordinator → worker: run cell N
	msgResult    = "result" // worker → coordinator: cell N's outcome
	msgHeartbeat = "hb"     // worker → coordinator: liveness (extends leases)
	msgDone      = "done"   // coordinator → worker: campaign complete, disconnect
	msgError     = "err"    // worker → coordinator: cell N failed to run
)

// msg is the single wire envelope; T discriminates which fields are
// meaningful. Cell deliberately has no omitempty: cell 0 is a valid
// index.
type msg struct {
	T string `json:"t"`

	// msgHello
	Worker   string `json:"worker,omitempty"`
	Capacity int    `json:"capacity,omitempty"`

	// msgPlan
	Spec   *Spec  `json:"spec,omitempty"`
	Digest string `json:"digest,omitempty"`
	Cells  int    `json:"cells,omitempty"`

	// msgLease / msgResult / msgError
	Cell      int             `json:"cell"`
	ElapsedNS int64           `json:"elapsed_ns,omitempty"`
	Outcome   json.RawMessage `json:"outcome,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// Framing limits. A full-fidelity cell outcome serializes to ~10 MB of
// JSON — far beyond transport.MaxPayload — so one logical message spans
// multiple transport frames: each frame payload is one flags byte
// followed by a chunk of the (optionally deflate-compressed) message
// body, and the flagMore bit links chunks.
const (
	// maxChunk bounds the body bytes carried per transport frame.
	maxChunk = 256 << 10
	// maxMessage bounds a reassembled logical message (~6x the largest
	// observed outcome, so corrupted lengths fail fast instead of OOMing).
	maxMessage = 64 << 20
	// compressThreshold: bodies above it are deflated before chunking.
	compressThreshold = 4 << 10

	flagMore    = 0x01 // another chunk of this message follows
	flagDeflate = 0x02 // message body is deflate-compressed (first chunk)
)

// ErrProtocol marks malformed wire input: bad framing, corrupt frames,
// oversized or truncated messages, invalid JSON. The coordinator counts
// these on campaignd_protocol_errors_total and closes the connection.
var ErrProtocol = errors.New("campaignd: protocol error")

func protocolErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// wireWriter serializes logical messages onto a stream. Not safe for
// concurrent use; callers serialize with their own mutex.
type wireWriter struct {
	w   *bufio.Writer
	seq uint64
}

func newWireWriter(w io.Writer) *wireWriter {
	return &wireWriter{w: bufio.NewWriter(w)}
}

// writeMsg encodes m as JSON, compresses large bodies, splits the body
// into frame-sized chunks, and flushes the stream.
func (ww *wireWriter) writeMsg(m *msg) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("campaignd: encode %s: %w", m.T, err)
	}
	var flags byte
	if len(body) > compressThreshold {
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := fw.Write(body); err != nil {
			return err
		}
		if err := fw.Close(); err != nil {
			return err
		}
		body = buf.Bytes()
		flags |= flagDeflate
	}
	for first := true; first || len(body) > 0; first = false {
		n := len(body)
		if n > maxChunk {
			n = maxChunk
		}
		chunkFlags := flags
		if n < len(body) {
			chunkFlags |= flagMore
		}
		payload := make([]byte, 1+n)
		payload[0] = chunkFlags
		copy(payload[1:], body[:n])
		body = body[n:]

		ww.seq++
		if err := transport.WriteStreamFrame(ww.w, ww.seq, payload); err != nil {
			return err
		}
	}
	return ww.w.Flush()
}

// readMsg reassembles one logical message from r. It returns io.EOF on
// a clean close at a message boundary, and ErrProtocol-wrapped errors
// for every malformed input (bad length prefix, corrupt frame, chunk
// overflow, truncated stream, invalid JSON) — the input is hostile
// territory and must never panic (see FuzzWireProtocol).
func readMsg(r *bufio.Reader) (*msg, error) {
	var body []byte
	deflated := false
	for chunk := 0; ; chunk++ {
		_, payload, err := transport.ReadStreamFrame(r, 1+maxChunk)
		switch {
		case err == io.EOF && chunk == 0:
			return nil, io.EOF
		case err == io.EOF:
			return nil, protocolErrf("stream ended inside a chunked message")
		case err != nil:
			return nil, fmt.Errorf("%w: %w", ErrProtocol, err)
		}
		flags := payload[0]
		if chunk == 0 {
			deflated = flags&flagDeflate != 0
		}
		if len(body)+len(payload)-1 > maxMessage {
			return nil, protocolErrf("message exceeds %d bytes", maxMessage)
		}
		body = append(body, payload[1:]...)
		if flags&flagMore == 0 {
			break
		}
	}
	if deflated {
		fr := flate.NewReader(bytes.NewReader(body))
		inflated, err := io.ReadAll(io.LimitReader(fr, maxMessage+1))
		if err != nil {
			return nil, protocolErrf("inflate: %v", err)
		}
		if len(inflated) > maxMessage {
			return nil, protocolErrf("inflated message exceeds %d bytes", maxMessage)
		}
		body = inflated
	}
	var m msg
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, protocolErrf("invalid message JSON: %v", err)
	}
	if m.T == "" {
		return nil, protocolErrf("message missing type")
	}
	return &m, nil
}
