package netem

import (
	"teledrive/internal/telemetry"
)

// Instruments is the link's native telemetry surface: pre-bound atomic
// handles the Send/deliver hot path increments alongside its Stats
// fields. All handles are bound once in NewInstruments; attaching them
// to a link adds a nil-check plus atomic adds to the packet path —
// no map lookups, no allocations, and no effect on the link's RNG or
// clock scheduling, so an instrumented run stays bit-identical to a
// bare one (the fingerprint suite asserts this).
type Instruments struct {
	Sent        *telemetry.Counter
	Delivered   *telemetry.Counter
	Lost        *telemetry.Counter
	TailDropped *telemetry.Counter
	Duplicated  *telemetry.Counter
	Corrupted   *telemetry.Counter
	Reordered   *telemetry.Counter
	// Throttled counts packets serialized through the token-bucket rate
	// shaper (rules with Rate > 0).
	Throttled *telemetry.Counter
	BytesSent *telemetry.Counter
	// QueueDepth mirrors the link's in-flight packet count.
	QueueDepth *telemetry.Gauge
	// RuleChanges counts AddRule ("add") / DeleteRule ("delete") calls.
	RuleAdds    *telemetry.Counter
	RuleDeletes *telemetry.Counter
}

// NewInstruments binds the per-link instrument set in reg, labeled with
// the link name ("uplink"/"downlink" in the standard duplex).
func NewInstruments(reg *telemetry.Registry, link string) *Instruments {
	pkts := reg.CounterVec("teledrive_netem_packets_total",
		"Packets through the emulated qdisc, by link and event.", "link", "event")
	rules := reg.CounterVec("teledrive_netem_rule_changes_total",
		"NETEM rule installs and removals, by link and action.", "link", "action")
	return &Instruments{
		Sent:        pkts.With(link, "sent"),
		Delivered:   pkts.With(link, "delivered"),
		Lost:        pkts.With(link, "lost"),
		TailDropped: pkts.With(link, "taildropped"),
		Duplicated:  pkts.With(link, "duplicated"),
		Corrupted:   pkts.With(link, "corrupted"),
		Reordered:   pkts.With(link, "reordered"),
		Throttled:   pkts.With(link, "throttled"),
		BytesSent: reg.CounterVec("teledrive_netem_bytes_sent_total",
			"Packet bytes accepted by Send, virtual padding included, by link.", "link").With(link),
		QueueDepth: reg.GaugeVec("teledrive_netem_queue_depth",
			"Packets currently in flight through the emulated qdisc, by link.", "link").With(link),
		RuleAdds:    rules.With(link, "add"),
		RuleDeletes: rules.With(link, "delete"),
	}
}

// SetInstruments attaches (or detaches, with nil) the link's telemetry
// handles. Call it at wiring time, before traffic flows.
func (l *Link) SetInstruments(ins *Instruments) { l.ins = ins }

// Instrument binds per-link instrument sets for both directions of the
// duplex, labeled by each link's name.
func (d *Duplex) Instrument(reg *telemetry.Registry) {
	d.Down.SetInstruments(NewInstruments(reg, d.Down.Name()))
	d.Up.SetInstruments(NewInstruments(reg, d.Up.Name()))
}
