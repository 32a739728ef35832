package netem

import (
	"bytes"
	"math"
	"testing"
	"time"

	"teledrive/internal/simclock"
)

// collector gathers delivered packets for assertions.
type collector struct {
	pkts []Packet
}

func (c *collector) recv(p Packet) { c.pkts = append(c.pkts, p) }

func newTestLink(t *testing.T, seed int64) (*simclock.Clock, *Link, *collector) {
	t.Helper()
	clk := simclock.New()
	col := &collector{}
	return clk, NewLink("test", clk, seed, col.recv), col
}

func TestTransparentLinkDeliversImmediately(t *testing.T) {
	clk, link, col := newTestLink(t, 1)
	if !link.Send([]byte("hello")) {
		t.Fatal("Send returned false on transparent link")
	}
	clk.Advance(0)
	if len(col.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(col.pkts))
	}
	p := col.pkts[0]
	if p.Latency() != 0 {
		t.Fatalf("transparent latency = %v, want 0", p.Latency())
	}
	if string(p.Payload) != "hello" {
		t.Fatalf("payload = %q", p.Payload)
	}
	if p.Seq != 1 {
		t.Fatalf("seq = %d, want 1", p.Seq)
	}
}

func TestPayloadIsCopied(t *testing.T) {
	clk, link, col := newTestLink(t, 1)
	buf := []byte("abc")
	link.Send(buf)
	buf[0] = 'X'
	clk.Advance(0)
	if string(col.pkts[0].Payload) != "abc" {
		t.Fatalf("payload aliased caller buffer: %q", col.pkts[0].Payload)
	}
}

func TestFixedDelay(t *testing.T) {
	clk, link, col := newTestLink(t, 1)
	if err := link.AddRule(Rule{Delay: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	link.Send([]byte("x"))
	clk.Advance(49 * time.Millisecond)
	if len(col.pkts) != 0 {
		t.Fatal("packet delivered before delay elapsed")
	}
	clk.Advance(time.Millisecond)
	if len(col.pkts) != 1 {
		t.Fatal("packet not delivered at delay")
	}
	if got := col.pkts[0].Latency(); got != 50*time.Millisecond {
		t.Fatalf("latency = %v, want 50ms", got)
	}
}

func TestDelayPreservesOrderWithoutJitter(t *testing.T) {
	clk, link, col := newTestLink(t, 1)
	link.AddRule(Rule{Delay: 10 * time.Millisecond})
	for i := 0; i < 20; i++ {
		link.Send([]byte{byte(i)})
		clk.Advance(time.Millisecond)
	}
	clk.Advance(time.Second)
	if len(col.pkts) != 20 {
		t.Fatalf("delivered %d, want 20", len(col.pkts))
	}
	for i, p := range col.pkts {
		if p.Seq != uint64(i+1) {
			t.Fatalf("packet %d has seq %d: reordered without jitter", i, p.Seq)
		}
	}
}

func TestJitterWithinBounds(t *testing.T) {
	clk, link, col := newTestLink(t, 7)
	base, jit := 50*time.Millisecond, 20*time.Millisecond
	link.AddRule(Rule{Delay: base, Jitter: jit})
	const n = 500
	for i := 0; i < n; i++ {
		link.Send([]byte("p"))
		clk.Advance(time.Millisecond)
	}
	clk.Advance(time.Second)
	if len(col.pkts) != n {
		t.Fatalf("delivered %d, want %d", len(col.pkts), n)
	}
	var minL, maxL = time.Hour, time.Duration(0)
	for _, p := range col.pkts {
		l := p.Latency()
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if minL < base-jit || maxL > base+jit {
		t.Fatalf("latency range [%v, %v] outside [%v, %v]", minL, maxL, base-jit, base+jit)
	}
	if maxL-minL < jit/2 {
		t.Fatalf("jitter spread %v suspiciously small", maxL-minL)
	}
}

func TestLossRate(t *testing.T) {
	clk, link, col := newTestLink(t, 42)
	link.AddRule(Rule{Loss: 0.05, Limit: 100000})
	const n = 20000
	for i := 0; i < n; i++ {
		link.Send([]byte("p"))
	}
	clk.Advance(time.Second)
	lossFrac := 1 - float64(len(col.pkts))/n
	if math.Abs(lossFrac-0.05) > 0.01 {
		t.Fatalf("observed loss %v, want ≈0.05", lossFrac)
	}
	st := link.Stats()
	if st.Lost+st.Delivered != n {
		t.Fatalf("stats inconsistent: lost %d + delivered %d != %d", st.Lost, st.Delivered, n)
	}
}

func TestLossZeroAndOne(t *testing.T) {
	clk, link, col := newTestLink(t, 1)
	link.AddRule(Rule{Loss: 1})
	for i := 0; i < 100; i++ {
		if link.Send([]byte("p")) {
			t.Fatal("Send returned true under 100% loss")
		}
	}
	clk.Advance(time.Second)
	if len(col.pkts) != 0 {
		t.Fatalf("delivered %d under 100%% loss", len(col.pkts))
	}
}

func TestCorrelatedLossIsBurstier(t *testing.T) {
	burstiness := func(seed int64, corr float64) float64 {
		clk := simclock.New()
		col := &collector{}
		link := NewLink("t", clk, seed, col.recv)
		link.AddRule(Rule{Loss: 0.2, LossCorr: corr, Limit: 100000})
		losses := make([]bool, 0, 10000)
		for i := 0; i < 10000; i++ {
			losses = append(losses, !link.Send([]byte("p")))
		}
		clk.Advance(time.Second)
		// Count loss runs; fewer runs for the same loss count = burstier.
		runs, count := 0, 0
		for i, l := range losses {
			if l {
				count++
				if i == 0 || !losses[i-1] {
					runs++
				}
			}
		}
		if runs == 0 {
			return 0
		}
		return float64(count) / float64(runs) // mean burst length
	}
	iid := burstiness(3, 0)
	corr := burstiness(3, 0.9)
	if corr <= iid {
		t.Fatalf("correlated loss mean burst %v not larger than iid %v", corr, iid)
	}
}

func TestGilbertElliottBurstLoss(t *testing.T) {
	clk := simclock.New()
	col := &collector{}
	link := NewLink("t", clk, 11, col.recv)
	link.AddRule(Rule{GE: &GilbertElliott{
		PGoodToBad: 0.01, PBadToGood: 0.2, LossGood: 0.001, LossBad: 0.8,
	}, Limit: 100000})
	const n = 50000
	for i := 0; i < n; i++ {
		link.Send([]byte("p"))
	}
	clk.Advance(time.Second)
	// Stationary bad-state probability = pGB/(pGB+pBG) ≈ 0.0476; expected
	// loss ≈ 0.0476*0.8 + 0.952*0.001 ≈ 0.039.
	lossFrac := 1 - float64(len(col.pkts))/n
	if lossFrac < 0.02 || lossFrac > 0.06 {
		t.Fatalf("GE loss fraction %v outside expected band", lossFrac)
	}
}

func TestDuplication(t *testing.T) {
	clk, link, col := newTestLink(t, 5)
	link.AddRule(Rule{Duplicate: 0.5, Limit: 100000})
	const n = 2000
	for i := 0; i < n; i++ {
		link.Send([]byte("p"))
	}
	clk.Advance(time.Second)
	extra := len(col.pkts) - n
	if extra < n/3 || extra > 2*n/3 {
		t.Fatalf("duplicates = %d, want ≈%d", extra, n/2)
	}
	dupFlagged := 0
	for _, p := range col.pkts {
		if p.Duplicate {
			dupFlagged++
		}
	}
	if dupFlagged != extra {
		t.Fatalf("flagged %d duplicates, stats say %d", dupFlagged, extra)
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	clk, link, col := newTestLink(t, 9)
	link.AddRule(Rule{Corrupt: 1})
	orig := []byte{0x00, 0xFF, 0xAA, 0x55}
	link.Send(orig)
	clk.Advance(time.Second)
	if len(col.pkts) != 1 || !col.pkts[0].Corrupted {
		t.Fatalf("corrupted packet not delivered/flagged: %+v", col.pkts)
	}
	diffBits := 0
	for i := range orig {
		x := orig[i] ^ col.pkts[0].Payload[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diffBits)
	}
}

func TestCorruptionOfEmptyPayload(t *testing.T) {
	clk, link, col := newTestLink(t, 9)
	link.AddRule(Rule{Corrupt: 1})
	link.Send(nil)
	clk.Advance(time.Second)
	if len(col.pkts) != 1 || col.pkts[0].Corrupted {
		t.Fatal("empty payload should pass through uncorrupted")
	}
}

// TestCorruptionInPad: a corruption draw over a padded packet's full
// size that lands in the virtual pad flips no payload byte and marks
// the packet PadCorrupted instead; one landing in the payload flips
// exactly one bit as before.
func TestCorruptionInPad(t *testing.T) {
	clk, link, col := newTestLink(t, 9)
	link.AddRule(Rule{Corrupt: 1})
	orig := []byte{0x00, 0xFF, 0xAA, 0x55}
	const pad = 4
	for i := 0; i < 64; i++ {
		link.SendPadded(orig, pad)
	}
	link.SendPadded(nil, pad) // a pure-pad packet can only corrupt in its pad
	clk.Advance(time.Second)
	if len(col.pkts) != 65 {
		t.Fatalf("delivered %d packets, want 65", len(col.pkts))
	}
	inPad := 0
	for _, p := range col.pkts {
		if !p.Corrupted || p.Pad != pad {
			t.Fatalf("packet %d: Corrupted=%v Pad=%d, want true, %d", p.Seq, p.Corrupted, p.Pad, pad)
		}
		if p.PadCorrupted {
			inPad++
			if !bytes.Equal(p.Payload, orig[:len(p.Payload)]) {
				t.Fatalf("packet %d: pad corruption touched the payload: % x", p.Seq, p.Payload)
			}
		} else if bytes.Equal(p.Payload, orig) {
			t.Fatalf("packet %d: corrupted, but neither payload nor pad was hit", p.Seq)
		}
	}
	if last := col.pkts[len(col.pkts)-1]; !last.PadCorrupted {
		t.Fatal("pure-pad packet not marked PadCorrupted")
	}
	// Half of each 8-byte packet is pad: both outcomes must occur.
	if inPad < 10 || inPad > 55 {
		t.Fatalf("%d of 65 corruptions landed in the pad, want about half", inPad)
	}
	if got := link.Stats().CorruptedN; got != 65 {
		t.Fatalf("CorruptedN = %d, want 65", got)
	}
}

func TestReorderBypassesDelay(t *testing.T) {
	clk, link, col := newTestLink(t, 3)
	link.AddRule(Rule{Delay: 100 * time.Millisecond, Reorder: 0.5, Limit: 100000})
	const n = 1000
	for i := 0; i < n; i++ {
		link.Send([]byte("p"))
	}
	clk.Advance(time.Millisecond) // only reordered (immediate) packets arrive
	early := len(col.pkts)
	if early < n/3 || early > 2*n/3 {
		t.Fatalf("early (reordered) deliveries = %d, want ≈%d", early, n/2)
	}
	clk.Advance(time.Second)
	if len(col.pkts) != n {
		t.Fatalf("total delivered = %d, want %d", len(col.pkts), n)
	}
	if got := link.Stats().Reordered; got != uint64(early) {
		t.Fatalf("Reordered stat = %d, want %d", got, early)
	}
}

func TestReorderGap(t *testing.T) {
	clk, link, col := newTestLink(t, 3)
	// Gap 5 with reorder probability 1: exactly every 5th packet jumps.
	link.AddRule(Rule{Delay: 100 * time.Millisecond, Reorder: 1, Gap: 5})
	for i := 0; i < 100; i++ {
		link.Send([]byte("p"))
	}
	clk.Advance(time.Millisecond)
	if len(col.pkts) != 20 {
		t.Fatalf("early deliveries = %d, want 20 (every 5th)", len(col.pkts))
	}
	for _, p := range col.pkts {
		if p.Seq%5 != 0 {
			t.Fatalf("packet seq %d reordered; only multiples of 5 expected", p.Seq)
		}
	}
}

func TestRateLimitSerializes(t *testing.T) {
	clk, link, col := newTestLink(t, 1)
	// 1000 bytes/s; each 100-byte packet takes 100 ms on the wire.
	link.AddRule(Rule{Rate: 1000})
	payload := make([]byte, 100)
	for i := 0; i < 5; i++ {
		link.Send(payload)
	}
	clk.Advance(time.Second)
	if len(col.pkts) != 5 {
		t.Fatalf("delivered %d, want 5", len(col.pkts))
	}
	for i, p := range col.pkts {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if p.DeliveredAt != want {
			t.Fatalf("packet %d delivered at %v, want %v", i, p.DeliveredAt, want)
		}
	}
}

func TestQueueLimitTailDrop(t *testing.T) {
	clk, link, col := newTestLink(t, 1)
	link.AddRule(Rule{Delay: time.Second, Limit: 10})
	accepted := 0
	for i := 0; i < 25; i++ {
		if link.Send([]byte("p")) {
			accepted++
		}
	}
	if accepted != 10 {
		t.Fatalf("accepted %d, want 10 (limit)", accepted)
	}
	if got := link.Stats().TailDropped; got != 15 {
		t.Fatalf("TailDropped = %d, want 15", got)
	}
	clk.Advance(2 * time.Second)
	if len(col.pkts) != 10 {
		t.Fatalf("delivered %d, want 10", len(col.pkts))
	}
	// Queue drains: new packets accepted again.
	if !link.Send([]byte("p")) {
		t.Fatal("Send rejected after queue drained")
	}
}

func TestAddRuleRejectsInvalid(t *testing.T) {
	_, link, _ := newTestLink(t, 1)
	bad := []Rule{
		{Loss: 1.5},
		{Loss: -0.1},
		{Delay: -time.Second},
		{Rate: -5},
		{Limit: -1},
		{Duplicate: 2},
		{Corrupt: -1},
		{Reorder: 3},
		{LossCorr: 1.1},
		{GE: &GilbertElliott{PGoodToBad: 2}},
	}
	for i, r := range bad {
		if err := link.AddRule(r); err == nil {
			t.Errorf("rule %d accepted: %+v", i, r)
		}
	}
	if _, ok := link.Rule(); ok {
		t.Fatal("invalid rule installed")
	}
}

func TestDeleteRuleRestoresTransparency(t *testing.T) {
	clk, link, col := newTestLink(t, 1)
	link.AddRule(Rule{Delay: 100 * time.Millisecond})
	link.Send([]byte("a"))
	link.DeleteRule()
	link.Send([]byte("b"))
	clk.Advance(0)
	// "b" passes through immediately; "a" keeps its computed delay.
	if len(col.pkts) != 1 || string(col.pkts[0].Payload) != "b" {
		t.Fatalf("after delete: %+v", col.pkts)
	}
	clk.Advance(time.Second)
	if len(col.pkts) != 2 {
		t.Fatal("in-flight packet was dropped by DeleteRule")
	}
}

func TestRuleChangedCallback(t *testing.T) {
	_, link, _ := newTestLink(t, 1)
	var events []string
	link.RuleChanged = func(now time.Duration, action, desc string) {
		events = append(events, action+" "+desc)
	}
	link.AddRule(Rule{Delay: 50 * time.Millisecond})
	link.DeleteRule()
	link.DeleteRule() // no-op, no event
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if events[0] != "add delay 50ms" || events[1] != "delete none" {
		t.Fatalf("events = %v", events)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Packet {
		clk := simclock.New()
		col := &collector{}
		link := NewLink("t", clk, 1234, col.recv)
		link.AddRule(Rule{Delay: 20 * time.Millisecond, Jitter: 10 * time.Millisecond, Loss: 0.1, Duplicate: 0.05})
		for i := 0; i < 500; i++ {
			link.Send([]byte{byte(i)})
			clk.Advance(2 * time.Millisecond)
		}
		clk.Advance(time.Second)
		return col.pkts
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].DeliveredAt != b[i].DeliveredAt ||
			!bytes.Equal(a[i].Payload, b[i].Payload) {
			t.Fatalf("runs diverge at packet %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRuleString(t *testing.T) {
	cases := []struct {
		rule Rule
		want string
	}{
		{Rule{}, "none"},
		{Rule{Delay: 50 * time.Millisecond}, "delay 50ms"},
		{Rule{Loss: 0.05}, "loss 5%"},
		{Rule{Delay: 5 * time.Millisecond, Loss: 0.02}, "delay 5ms loss 2%"},
	}
	for _, c := range cases {
		if got := c.rule.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.rule, got, c.want)
		}
	}
}

func TestDistributionString(t *testing.T) {
	if DistUniform.String() != "uniform" || DistNormal.String() != "normal" || DistPareto.String() != "pareto" {
		t.Fatal("distribution names wrong")
	}
	if Distribution(99).String() == "" {
		t.Fatal("unknown distribution should still render")
	}
}

func TestNormalAndParetoJitterBounded(t *testing.T) {
	for _, dist := range []Distribution{DistNormal, DistPareto} {
		clk := simclock.New()
		col := &collector{}
		link := NewLink("t", clk, 21, col.recv)
		link.AddRule(Rule{Delay: 30 * time.Millisecond, Jitter: 10 * time.Millisecond, Dist: dist})
		for i := 0; i < 300; i++ {
			link.Send([]byte("p"))
			clk.Advance(time.Millisecond)
		}
		clk.Advance(time.Second)
		for _, p := range col.pkts {
			if p.Latency() < 0 {
				t.Fatalf("%v: negative latency %v", dist, p.Latency())
			}
			if p.Latency() > 50*time.Millisecond {
				t.Fatalf("%v: latency %v exceeds delay+jitter", dist, p.Latency())
			}
		}
	}
}

func TestDuplexBidirectionalRule(t *testing.T) {
	clk := simclock.New()
	down, up := &collector{}, &collector{}
	d := NewDuplex(clk, 99, down.recv, up.recv)
	if err := d.ApplyBoth(Rule{Delay: 25 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	d.Down.Send([]byte("video"))
	d.Up.Send([]byte("cmd"))
	clk.Advance(24 * time.Millisecond)
	if len(down.pkts)+len(up.pkts) != 0 {
		t.Fatal("packets early")
	}
	clk.Advance(time.Millisecond)
	if len(down.pkts) != 1 || len(up.pkts) != 1 {
		t.Fatalf("down=%d up=%d, want 1 each", len(down.pkts), len(up.pkts))
	}
	d.ClearBoth()
	if _, ok := d.Down.Rule(); ok {
		t.Fatal("down rule survived ClearBoth")
	}
	if _, ok := d.Up.Rule(); ok {
		t.Fatal("up rule survived ClearBoth")
	}
}

func TestDuplexRuleChangeLog(t *testing.T) {
	clk := simclock.New()
	d := NewDuplex(clk, 1, func(Packet) {}, func(Packet) {})
	var log []string
	d.OnRuleChanged(func(now time.Duration, link, action, desc string) {
		log = append(log, link+" "+action)
	})
	d.ApplyBoth(Rule{Loss: 0.02})
	d.ClearBoth()
	want := []string{"downlink add", "uplink add", "downlink delete", "uplink delete"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestStatsBytes(t *testing.T) {
	_, link, _ := newTestLink(t, 1)
	link.Send(make([]byte, 100))
	link.Send(make([]byte, 50))
	link.SendPadded(make([]byte, 10), 40) // the virtual pad counts
	if got := link.Stats().BytesSent; got != 200 {
		t.Fatalf("BytesSent = %d, want 200", got)
	}
}
