package transport

import (
	"errors"
	"fmt"
	"time"

	"teledrive/internal/netem"
	"teledrive/internal/simclock"
)

// Default timer bounds. RTOMin matches Linux TCP's 200 ms floor — the
// constant responsible for the "video freezes then jumps" experience the
// paper reports at 5 % packet loss.
const (
	DefaultRTOMin = 200 * time.Millisecond
	DefaultRTOMax = 3 * time.Second
	// DefaultWindow is the maximum number of unacknowledged fragments
	// (MTU-sized packets), ≈ a 700 KiB socket buffer. When the window is
	// full, Send fails and the application decides what to drop (the
	// bridge drops stale video frames, like a saturated encoder queue).
	DefaultWindow = 512
)

// ErrWindowFull is returned by Send when the reliable channel has too
// many unacknowledged messages in flight.
var ErrWindowFull = errors.New("transport: send window full")

// MTU is the maximum fragment payload carried in one network packet.
// Messages larger than this are fragmented — exactly why a video frame
// of tens of kilobytes suffers far more from p% packet loss than p% of
// frames: with n fragments per frame, the chance a frame needs at least
// one retransmission is 1−(1−p)ⁿ.
const MTU = 1400

// fragment header: flags(1) msgID(4) fragIdx(2) fragCount(2).
const (
	fragHeaderLen = 9
	fragFlagLast  = 1 << 0
)

// Stats counts endpoint activity.
type Stats struct {
	MsgsSent       uint64
	FragmentsSent  uint64 // MTU-sized packets produced by fragmentation
	MsgsDelivered  uint64 // in-order deliveries to the application
	Retransmits    uint64
	CorruptDropped uint64 // frames that failed CRC/decoding or were corrupted in their pad
	DuplicateDrops uint64 // already-delivered data frames
	OutOfOrderHeld uint64 // frames buffered waiting for a gap to fill
	AcksSent       uint64
	AcksReceived   uint64
	WindowRejects  uint64 // Send calls rejected by a full window
	DatagramsStale uint64 // datagrams that arrived older than one already delivered
	SRTT           time.Duration
	RTO            time.Duration
}

// Handler consumes application messages delivered by an endpoint. seq is
// the sender's message sequence; latency is the end-to-end message
// latency including retransmission and head-of-line blocking time.
type Handler func(payload []byte, seq uint64, latency time.Duration)

// Options configures an Endpoint.
type Options struct {
	// Name appears in error messages ("vehicle", "station").
	Name string
	// Reliable selects the mini-TCP mode (true, default via NewReliable)
	// or fire-and-forget datagrams (false, via NewDatagram).
	Reliable bool
	// Window overrides DefaultWindow. Only meaningful when Reliable.
	Window int
	// RTOMin/RTOMax override the retransmission-timeout bounds.
	RTOMin, RTOMax time.Duration
	// Congestion enables Reno-style congestion control (slow start,
	// AIMD, multiplicative decrease on loss). Off by default: the
	// paper's loopback link has effectively unlimited bandwidth, so the
	// calibrated experiments run with a fixed window; enable this to
	// study throughput collapse under loss (BenchmarkAblationCongestion).
	Congestion bool
	// Pools recycles fragment buffers, segment records, reassembly state
	// and (through Connect) the netem links' payload clones; nil gets a
	// fresh set. Because delivered payloads are recycled, a Handler must
	// not retain the payload slice past the callback — copy what it
	// keeps.
	Pools *Pools
}

func (o *Options) fillDefaults() {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.RTOMin <= 0 {
		o.RTOMin = DefaultRTOMin
	}
	if o.RTOMax <= 0 {
		o.RTOMax = DefaultRTOMax
	}
	if o.Name == "" {
		o.Name = "endpoint"
	}
}

// Endpoint is one side of a message channel. Create a connected pair
// with Connect, or wire endpoints to links manually with AttachLink +
// HandlePacket. Endpoint is not safe for concurrent use; it is driven by
// the single-threaded simulation loop.
type Endpoint struct {
	opts    Options
	clock   *simclock.Clock
	out     *netem.Link
	handler Handler
	stats   Stats

	// Sender state.
	nextSeq  uint64
	unacked  []*segment // ordered by seq
	rtxTimer *simclock.Timer
	srtt     time.Duration
	rttvar   time.Duration
	rto      time.Duration
	backoff  uint
	lastAck  uint64
	dupAcks  int
	cwnd     float64 // congestion window in fragments (Congestion mode)
	ssthresh float64

	// Receiver state.
	nextExpected uint64             // next in-order seq to deliver (reliable)
	held         map[uint64]heldMsg // out-of-order buffer
	lastDatagram uint64             // newest datagram msgID delivered

	// Sender-side message numbering (one message = one or more
	// fragments).
	nextMsgID uint32
	// Reassembly of fragmented messages, keyed by msgID.
	partials map[uint32]*partialMsg

	// Recycling state. The wire and fragment scratch are reused across
	// Sends (netem clones every Send and the fragment slice is consumed
	// within Send); asmBuf is the reassembly buffer every delivery
	// shares, which the delivery contract (Options.Pools) permits.
	pools       *Pools
	wireBuf     []byte     // EncodeFrameAppend scratch for transmit/sendAck
	fragScratch []fragment // fragmentize output slice, reused across Sends
	asmBuf      []byte     // reassembly scratch
}

// fragment is one MTU-sized piece of a message: buf holds the fragment
// header and the piece's real bytes, pad counts the virtual bytes that
// follow them on the link (netem.Packet.Pad).
type fragment struct {
	buf []byte
	pad int
}

type partialMsg struct {
	chunks  [][]byte
	have    int
	firstTS time.Duration
}

type segment struct {
	seq     uint64
	payload []byte
	pad     int // virtual tail resent with payload on every retransmit
	sentAt  time.Duration
	rtx     bool // retransmitted at least once (Karn's rule)
}

type heldMsg struct {
	payload []byte
	sentAt  time.Duration
}

// NewEndpoint creates an endpoint. The handler receives delivered
// messages; it must be non-nil. Call AttachLink before Send.
func NewEndpoint(clock *simclock.Clock, opts Options, handler Handler) *Endpoint {
	if clock == nil || handler == nil {
		panic("transport: NewEndpoint requires a clock and a handler")
	}
	opts.fillDefaults()
	if opts.Pools == nil {
		opts.Pools = NewPools()
	}
	e := &Endpoint{
		opts:         opts,
		clock:        clock,
		handler:      handler,
		nextSeq:      1,
		nextExpected: 1,
		held:         make(map[uint64]heldMsg),
		partials:     make(map[uint32]*partialMsg),
		rto:          opts.RTOMin,
		cwnd:         10, // RFC 6928 initial window
		ssthresh:     float64(opts.Window),
		pools:        opts.Pools,
	}
	// One owned retransmission timer, re-armed for the endpoint's whole
	// life instead of a fresh Timer per arming. It starts stopped, so the
	// Send-side Stopped() check arms it on first use exactly as before.
	e.rtxTimer = clock.NewTimer(e.onTimeout)
	return e
}

// sendWindow returns the current effective send window in fragments.
func (e *Endpoint) sendWindow() int {
	if !e.opts.Congestion {
		return e.opts.Window
	}
	w := int(e.cwnd)
	if w < 1 {
		w = 1
	}
	if w > e.opts.Window {
		w = e.opts.Window
	}
	return w
}

// Cwnd returns the congestion window in fragments (meaningful only in
// Congestion mode).
func (e *Endpoint) Cwnd() float64 { return e.cwnd }

// fragmentize splits a message of len(payload)+pad bytes, whose last pad
// bytes are virtual, into MTU-sized pieces, each prefixed with the
// fragment header: flags(1) msgID(4) fragIdx(2) fragCount(2). A piece
// keeps the real bytes it covers and counts the virtual rest as its pad,
// so the fragments are as many and as large on the link as a
// materialized payload's. The returned slice is the endpoint's reused
// scratch, valid until the next Send; the fragment buffers come from the
// pool.
func (e *Endpoint) fragmentize(msgID uint32, payload []byte, pad int) []fragment {
	total := len(payload) + pad
	n := (total + MTU - 1) / MTU
	if n == 0 {
		n = 1
	}
	out := e.fragScratch[:0]
	for i := 0; i < n; i++ {
		lo, hi := i*MTU, min(i*MTU+MTU, total)
		chunk := payload[min(lo, len(payload)):min(hi, len(payload))]
		buf := e.pools.buf(fragHeaderLen + len(chunk))
		if i == n-1 {
			buf[0] = fragFlagLast
		} else {
			buf[0] = 0
		}
		buf[1] = byte(msgID >> 24)
		buf[2] = byte(msgID >> 16)
		buf[3] = byte(msgID >> 8)
		buf[4] = byte(msgID)
		buf[5] = byte(i >> 8)
		buf[6] = byte(i)
		buf[7] = byte(n >> 8)
		buf[8] = byte(n)
		copy(buf[fragHeaderLen:], chunk)
		out = append(out, fragment{buf: buf, pad: hi - lo - len(chunk)})
	}
	e.fragScratch = out
	return out
}

// cloneFrag copies a fragment-sized buffer into pooled storage, or an
// oversized one into a fresh allocation.
func (e *Endpoint) cloneFrag(b []byte) []byte {
	if len(b) <= fragBufCap {
		out := e.pools.buf(len(b))
		copy(out, b)
		return out
	}
	return cloneBytes(b)
}

// recycleBuf returns a buffer obtained from the pool (foreign buffers
// go to the garbage collector).
func (e *Endpoint) recycleBuf(b []byte) { e.pools.putBuf(b) }

// parseFragment splits a fragment header off a wire payload.
func parseFragment(buf []byte) (msgID uint32, idx, count int, chunk []byte, ok bool) {
	if len(buf) < fragHeaderLen {
		return 0, 0, 0, nil, false
	}
	msgID = uint32(buf[1])<<24 | uint32(buf[2])<<16 | uint32(buf[3])<<8 | uint32(buf[4])
	idx = int(buf[5])<<8 | int(buf[6])
	count = int(buf[7])<<8 | int(buf[8])
	if count == 0 || idx >= count {
		return 0, 0, 0, nil, false
	}
	return msgID, idx, count, buf[fragHeaderLen:], true
}

// AttachLink sets the egress link toward the peer.
func (e *Endpoint) AttachLink(out *netem.Link) { e.out = out }

// Stats returns a snapshot of the endpoint counters, including the
// current RTT estimate.
func (e *Endpoint) Stats() Stats {
	s := e.stats
	s.SRTT = e.srtt
	s.RTO = e.rto
	return s
}

// InFlight returns the number of unacknowledged messages.
func (e *Endpoint) InFlight() int { return len(e.unacked) }

// Send transmits one application message to the peer; it is
// SendPadded(payload, 0).
func (e *Endpoint) Send(payload []byte) error { return e.SendPadded(payload, 0) }

// SendPadded transmits one application message of len(payload)+pad
// bytes to the peer, fragmenting it into MTU-sized packets. The last pad
// bytes are virtual: they occupy the link like real bytes (fragment
// count, loss exposure, serialization time) but are never materialized,
// and the peer's handler receives only payload. In reliable mode it
// returns ErrWindowFull when the message's fragments do not fit in the
// unacknowledged window; in datagram mode it never fails (fragments may
// silently be lost, losing the whole message).
func (e *Endpoint) SendPadded(payload []byte, pad int) error {
	if e.out == nil {
		return fmt.Errorf("transport: %s: no link attached", e.opts.Name)
	}
	if pad < 0 {
		return fmt.Errorf("transport: %s: negative pad %d", e.opts.Name, pad)
	}
	if len(payload)+pad > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrPayloadTooBig, len(payload)+pad)
	}
	now := e.clock.Now()
	e.nextMsgID++
	frags := e.fragmentize(e.nextMsgID, payload, pad)

	if !e.opts.Reliable {
		for _, frag := range frags {
			wire, err := EncodeFrameAppend(e.wireBuf[:0], Frame{Type: FrameDatagram, Seq: e.nextSeq, Timestamp: now, Payload: frag.buf})
			if err != nil {
				return err
			}
			e.wireBuf = wire
			e.nextSeq++
			e.stats.FragmentsSent++
			e.out.SendPadded(wire, frag.pad) // netem clones; wire and frag are free again
			e.recycleBuf(frag.buf)
		}
		e.stats.MsgsSent++
		return nil
	}

	// Window admission. In fixed-window mode the whole message must
	// fit. In congestion mode a message may overshoot the window once
	// the pipe has room (messages are atomic here, unlike TCP's byte
	// stream, so a frame larger than cwnd must still be sendable).
	if e.opts.Congestion {
		if len(e.unacked) >= e.sendWindow() {
			e.stats.WindowRejects++
			e.recycleFrags(frags)
			return fmt.Errorf("%w (%s: %d in flight, cwnd %d)", ErrWindowFull, e.opts.Name, len(e.unacked), e.sendWindow())
		}
	} else if len(e.unacked)+len(frags) > e.opts.Window {
		e.stats.WindowRejects++
		e.recycleFrags(frags)
		return fmt.Errorf("%w (%s: %d in flight, %d new, window %d)", ErrWindowFull, e.opts.Name, len(e.unacked), len(frags), e.opts.Window)
	}
	for _, frag := range frags {
		seg := e.pools.seg()
		seg.seq, seg.payload, seg.pad, seg.sentAt = e.nextSeq, frag.buf, frag.pad, now
		e.nextSeq++
		e.unacked = append(e.unacked, seg)
		e.stats.FragmentsSent++
		e.transmit(seg, now)
	}
	e.stats.MsgsSent++
	if e.rtxTimer.Stopped() {
		e.armTimer()
	}
	return nil
}

// recycleFrags returns a window-rejected message's fragments to the pool.
func (e *Endpoint) recycleFrags(frags []fragment) {
	for _, frag := range frags {
		e.pools.putBuf(frag.buf)
	}
}

func (e *Endpoint) transmit(seg *segment, now time.Duration) {
	wire, err := EncodeFrameAppend(e.wireBuf[:0], Frame{Type: FrameData, Seq: seg.seq, Timestamp: now, Payload: seg.payload})
	if err != nil {
		// Payload size is validated once at Send time; failure here is a
		// programming error worth surfacing loudly in simulation.
		panic(fmt.Sprintf("transport: %s: encode: %v", e.opts.Name, err))
	}
	e.wireBuf = wire
	e.out.SendPadded(wire, seg.pad)
}

// HandlePacket is the netem receiver for the endpoint's ingress link:
// wire it as the peer link's delivery callback.
func (e *Endpoint) HandlePacket(pkt netem.Packet) {
	if pkt.PadCorrupted {
		// The CRC covers only the real bytes, so a bit flipped in the
		// virtual pad is dropped here — as the CRC drops a flip anywhere
		// in a materialized frame.
		e.stats.CorruptDropped++
		return
	}
	f, err := DecodeFrame(pkt.Payload)
	if err != nil {
		// Corrupt frames are indistinguishable from loss, as on a real
		// NIC that drops bad-checksum packets.
		e.stats.CorruptDropped++
		return
	}
	switch f.Type {
	case FrameAck:
		e.handleAck(f)
	case FrameData:
		e.handleData(f)
	case FrameDatagram:
		e.handleDatagram(f)
	default:
		e.stats.CorruptDropped++
	}
}

func (e *Endpoint) handleData(f Frame) {
	now := e.clock.Now()
	switch {
	case f.Seq < e.nextExpected:
		e.stats.DuplicateDrops++
	case f.Seq == e.nextExpected:
		e.acceptFragment(f.Payload, f.Timestamp, now)
		e.nextExpected++
		// Flush any consecutive held fragments. acceptFragment copies
		// what it keeps, so the held buffer is free afterwards.
		for {
			h, ok := e.held[e.nextExpected]
			if !ok {
				break
			}
			delete(e.held, e.nextExpected)
			e.acceptFragment(h.payload, h.sentAt, now)
			e.recycleBuf(h.payload)
			e.nextExpected++
		}
	default: // gap: hold until the missing segment arrives
		if _, dup := e.held[f.Seq]; !dup {
			e.held[f.Seq] = heldMsg{payload: e.cloneFrag(f.Payload), sentAt: f.Timestamp}
			e.stats.OutOfOrderHeld++
		} else {
			e.stats.DuplicateDrops++
		}
	}
	e.sendAck()
}

func (e *Endpoint) handleDatagram(f Frame) {
	e.acceptFragment(f.Payload, f.Timestamp, e.clock.Now())
}

// acceptFragment feeds one received fragment into the reassembler and
// delivers the message once every fragment is present. Fragments carry
// only real bytes (a pad-only fragment's chunk is empty), so the
// reassembled message is the sender's payload without its pad. The delivered
// latency spans from the earliest fragment's send time — so a frame
// delayed by a retransmitted fragment carries the whole stall.
func (e *Endpoint) acceptFragment(buf []byte, ts, now time.Duration) {
	msgID, idx, count, chunk, ok := parseFragment(buf)
	if !ok {
		e.stats.CorruptDropped++
		return
	}
	p := e.partials[msgID]
	if p == nil {
		p = e.pools.partial(count)
		p.firstTS = ts
		e.partials[msgID] = p
	}
	if len(p.chunks) != count {
		// Inconsistent duplicate with a different count: drop the whole
		// message rather than deliver garbage.
		delete(e.partials, msgID)
		e.pools.putPartial(p)
		e.stats.CorruptDropped++
		return
	}
	if p.chunks[idx] == nil {
		p.chunks[idx] = e.cloneFrag(chunk)
		p.have++
	}
	if ts < p.firstTS {
		p.firstTS = ts
	}
	if p.have < count {
		return
	}
	total := 0
	for _, c := range p.chunks {
		total += len(c)
	}
	// Reused assembly scratch: the delivery contract says the handler
	// must not retain the payload, so one buffer serves every delivery
	// on this endpoint.
	if cap(e.asmBuf) < total {
		e.asmBuf = make([]byte, 0, total)
	}
	full := e.asmBuf[:0]
	for _, c := range p.chunks {
		full = append(full, c...)
	}
	e.asmBuf = full
	delete(e.partials, msgID)
	firstTS := p.firstTS
	e.pools.putPartial(p) // also recycles the chunk buffers

	if !e.opts.Reliable {
		if msgID <= uint32(e.lastDatagram) && e.lastDatagram != 0 {
			// Stale datagram message: deliver anyway (the application
			// sees arrival order) but count it.
			e.stats.DatagramsStale++
		} else {
			e.lastDatagram = uint64(msgID)
		}
		// Garbage-collect partials that can no longer complete sensibly.
		for id, pm := range e.partials {
			if id+32 < msgID {
				delete(e.partials, id)
				e.pools.putPartial(pm)
			}
		}
	}
	e.deliver(full, uint64(msgID), now-firstTS)
}

func (e *Endpoint) deliver(payload []byte, seq uint64, latency time.Duration) {
	e.stats.MsgsDelivered++
	e.handler(payload, seq, latency)
}

func (e *Endpoint) sendAck() {
	// Cumulative ACK: everything below nextExpected has been delivered.
	wire, err := EncodeFrameAppend(e.wireBuf[:0], Frame{Type: FrameAck, Seq: e.nextExpected - 1, Timestamp: e.clock.Now()})
	if err != nil {
		panic(fmt.Sprintf("transport: %s: encode ack: %v", e.opts.Name, err))
	}
	e.wireBuf = wire
	e.stats.AcksSent++
	e.out.Send(wire)
}

func (e *Endpoint) handleAck(f Frame) {
	e.stats.AcksReceived++
	acked := f.Seq
	now := e.clock.Now()
	// unacked is ordered by seq and ACKs are cumulative, so the acked
	// segments are exactly the prefix with seq <= acked.
	m := 0
	hadRtx := false
	for m < len(e.unacked) && e.unacked[m].seq <= acked {
		if e.unacked[m].rtx {
			hadRtx = true
		}
		m++
	}
	// RTT sampling: Karn's algorithm, extended to cumulative ACKs — a
	// run that includes any retransmitted segment yields no sample,
	// because the older segments in it were acknowledged late due to
	// head-of-line blocking, not network delay. Otherwise sample the
	// highest (most recently sent) segment.
	if m > 0 && !hadRtx {
		e.updateRTT(now - e.unacked[m-1].sentAt)
	}
	if m > 0 {
		newlyAcked := m
		for _, seg := range e.unacked[:m] {
			e.pools.putBuf(seg.payload)
			e.pools.putSeg(seg)
		}
		n := copy(e.unacked, e.unacked[m:])
		clear(e.unacked[n:])
		e.unacked = e.unacked[:n]
		e.backoff = 0
		e.dupAcks = 0
		e.lastAck = acked
		if e.opts.Congestion {
			// Reno growth: exponential in slow start, additive after.
			for i := 0; i < newlyAcked; i++ {
				if e.cwnd < e.ssthresh {
					e.cwnd++
				} else {
					e.cwnd += 1 / e.cwnd
				}
			}
			if e.cwnd > float64(e.opts.Window) {
				e.cwnd = float64(e.opts.Window)
			}
		}
		e.rearmTimer()
		return
	}
	// No progress: a duplicate cumulative ACK signals that later segments
	// arrived past a hole. Three in a row trigger fast retransmit of the
	// oldest outstanding segment, as in TCP.
	if acked == e.lastAck && len(e.unacked) > 0 && e.unacked[0].seq == acked+1 {
		e.dupAcks++
		if e.dupAcks >= 3 {
			e.dupAcks = 0
			seg := e.unacked[0]
			seg.rtx = true
			e.stats.Retransmits++
			e.transmit(seg, seg.sentAt)
			if e.opts.Congestion {
				// Fast recovery: multiplicative decrease.
				e.ssthresh = e.cwnd / 2
				if e.ssthresh < 2 {
					e.ssthresh = 2
				}
				e.cwnd = e.ssthresh
			}
			e.rearmTimer()
		}
	} else {
		e.lastAck = acked
		e.dupAcks = 0
	}
}

func (e *Endpoint) updateRTT(sample time.Duration) {
	if sample < 0 {
		return
	}
	if e.srtt == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		diff := e.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		e.rttvar += (diff - e.rttvar) / 4
		e.srtt += (sample - e.srtt) / 8
	}
	e.rto = clampDur(e.srtt+4*e.rttvar, e.opts.RTOMin, e.opts.RTOMax)
}

// armTimer arms the owned retransmission timer. Reschedule consumes one
// clock sequence number, exactly like the fresh Schedule it replaced, so
// timer ordering — and therefore every trace — is unchanged.
func (e *Endpoint) armTimer() {
	d := e.rto << e.backoff
	if d > e.opts.RTOMax {
		d = e.opts.RTOMax
	}
	e.clock.Reschedule(e.rtxTimer, d)
}

func (e *Endpoint) rearmTimer() {
	e.clock.Cancel(e.rtxTimer)
	if len(e.unacked) > 0 {
		e.armTimer()
	}
}

func (e *Endpoint) onTimeout(now time.Duration) {
	if len(e.unacked) == 0 {
		return
	}
	// Go-back-N lite: retransmit the oldest unacked segment and back off.
	seg := e.unacked[0]
	seg.rtx = true
	e.stats.Retransmits++
	e.transmit(seg, seg.sentAt) // keep original timestamp for latency accounting
	if e.opts.Congestion {
		// RTO: collapse to one segment, as Reno does.
		e.ssthresh = e.cwnd / 2
		if e.ssthresh < 2 {
			e.ssthresh = 2
		}
		e.cwnd = 1
	}
	if e.backoff < 4 {
		e.backoff++
	}
	e.armTimer()
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Conn is a connected pair of endpoints with their two netem links,
// the standard way to build a vehicle↔station channel.
type Conn struct {
	// A and B are the two endpoints (conventionally A = vehicle,
	// B = station).
	A, B *Endpoint
	// Links carries traffic A→B on Down and B→A on Up, so a fault rule
	// applied to Links hits both the sensor stream and the command
	// stream, like the paper's loopback injection.
	Links *netem.Duplex
}

// Connect builds a reliable (or datagram, per opts.Reliable) duplex
// channel between two handlers. aHandler receives messages sent by B and
// vice versa.
func Connect(clock *simclock.Clock, seed int64, opts Options, aHandler, bHandler Handler) *Conn {
	if opts.Pools == nil {
		opts.Pools = NewPools()
	}
	optsA, optsB := opts, opts
	if optsA.Name == "" {
		optsA.Name, optsB.Name = "A", "B"
	} else {
		optsA.Name += "/A"
		optsB.Name += "/B"
	}
	a := NewEndpoint(clock, optsA, aHandler)
	b := NewEndpoint(clock, optsB, bHandler)
	links := netem.NewDuplex(clock, seed, b.HandlePacket, a.HandlePacket)
	// One pool set serves both endpoints and both directions: the
	// simulation loop is single-threaded, and an endpoint's received
	// buffers recycle into its own next sends.
	links.Down.SetBufferPool(opts.Pools.Net)
	links.Up.SetBufferPool(opts.Pools.Net)
	a.AttachLink(links.Down)
	b.AttachLink(links.Up)
	return &Conn{A: a, B: b, Links: links}
}
