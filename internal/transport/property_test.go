package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"teledrive/internal/netem"
	"teledrive/internal/simclock"
)

// TestReliableExactlyOnceProperty: under randomized network conditions
// the reliable channel delivers every message exactly once, in order,
// with no corruption — the TCP contract.
func TestReliableExactlyOnceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clk := simclock.New()
		var got []string
		conn := Connect(clk, seed, Options{Reliable: true},
			func([]byte, uint64, time.Duration) {},
			func(p []byte, _ uint64, _ time.Duration) { got = append(got, string(p)) },
		)
		rule := netem.Rule{
			Delay:   time.Duration(rng.Intn(60)) * time.Millisecond,
			Jitter:  time.Duration(rng.Intn(20)) * time.Millisecond,
			Loss:    rng.Float64() * 0.3,
			Corrupt: rng.Float64() * 0.1,
			Limit:   100000,
		}
		if err := conn.Links.Down.AddRule(rule); err != nil {
			return false
		}
		if rng.Intn(2) == 0 {
			conn.Links.Up.AddRule(netem.Rule{Loss: rng.Float64() * 0.2, Limit: 100000})
		}
		const n = 60
		sent := 0
		for i := 0; i < n; i++ {
			msg := fmt.Sprintf("msg-%04d", i)
			if err := conn.A.Send([]byte(msg)); err != nil {
				// Window full under heavy loss: wait and retry once.
				clk.Advance(500 * time.Millisecond)
				if err := conn.A.Send([]byte(msg)); err != nil {
					continue // give up on this message; do not count it
				}
			}
			sent++
			clk.Advance(time.Duration(10+rng.Intn(40)) * time.Millisecond)
		}
		clk.Advance(2 * time.Minute)
		if len(got) != sent {
			t.Logf("seed %d: delivered %d of %d", seed, len(got), sent)
			return false
		}
		// In-order (message numbers strictly increasing).
		last := -1
		for _, m := range got {
			var k int
			if _, err := fmt.Sscanf(m, "msg-%d", &k); err != nil {
				return false
			}
			if k <= last {
				return false
			}
			last = k
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestNetemConservationProperty: every packet is accounted for exactly
// once across delivered/lost/tail-dropped, minus what is still in
// flight.
func TestNetemConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clk := simclock.New()
		delivered := uint64(0)
		link := netem.NewLink("p", clk, seed, func(netem.Packet) { delivered++ })
		rule := netem.Rule{
			Delay:     time.Duration(rng.Intn(100)) * time.Millisecond,
			Jitter:    time.Duration(rng.Intn(30)) * time.Millisecond,
			Loss:      rng.Float64() * 0.5,
			Duplicate: rng.Float64() * 0.2,
			Limit:     1 + rng.Intn(200),
		}
		if err := link.AddRule(rule); err != nil {
			return false
		}
		n := 200 + rng.Intn(800)
		for i := 0; i < n; i++ {
			link.Send(make([]byte, 1+rng.Intn(100)))
			if rng.Intn(4) == 0 {
				clk.Advance(time.Duration(rng.Intn(10)) * time.Millisecond)
			}
		}
		clk.Advance(time.Minute)
		st := link.Stats()
		if link.InFlight() != 0 {
			return false
		}
		// Sent = delivered (minus duplicates) + lost + tail-dropped.
		return st.Sent == st.Delivered-st.Duplicated+st.Lost+st.TailDropped &&
			st.Delivered == delivered
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPaddedMatchesMaterializedProperty: a message whose tail is a
// virtual pad (SendPadded) behaves on the link exactly like the same
// message with the pad materialized as zeros (Send) — under any mix of
// netem impairments, both directions see identical netem and endpoint
// counters and identical (seq, latency) deliveries, and each padded
// delivery is the materialized one's real prefix.
func TestPaddedMatchesMaterializedProperty(t *testing.T) {
	type delivered struct {
		seq     uint64
		latency time.Duration
		payload []byte
	}
	type msg struct {
		real []byte
		pad  int
	}
	type outcome struct {
		net   [2]netem.Stats // down, up
		ep    [2]Stats       // A, B
		got   [2][]delivered // at B (sent by A), at A (sent by B)
		fails []bool         // per Send, in plan order
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rule := randomImpairment(rng)
		reliable := rng.Intn(4) != 0
		n := 20 + rng.Intn(30)
		plan := make([][2]msg, n) // [0] from A, [1] from B (nil real = none)
		gaps := make([]time.Duration, n)
		for i := range plan {
			for side := range plan[i] {
				if side == 1 && rng.Intn(2) == 0 {
					continue
				}
				real := make([]byte, rng.Intn(3*MTU))
				for j := range real {
					real[j] = byte(rng.Intn(256))
				}
				pad := 0
				if rng.Intn(4) != 0 {
					pad = rng.Intn(20 * MTU)
				}
				plan[i][side] = msg{real: real, pad: pad}
			}
			gaps[i] = time.Duration(rng.Intn(50)) * time.Millisecond
		}
		run := func(padded bool) outcome {
			var out outcome
			record := func(dir int) Handler {
				return func(p []byte, seq uint64, lat time.Duration) {
					out.got[dir] = append(out.got[dir], delivered{seq, lat, bytes.Clone(p)})
				}
			}
			clk := simclock.New()
			conn := Connect(clk, seed, Options{Reliable: reliable}, record(1), record(0))
			if err := conn.Links.ApplyBoth(rule); err != nil {
				t.Fatalf("rule %+v: %v", rule, err)
			}
			for i, pair := range plan {
				for side, m := range pair {
					if m.real == nil {
						continue
					}
					ep := conn.A
					if side == 1 {
						ep = conn.B
					}
					var err error
					if padded {
						err = ep.SendPadded(m.real, m.pad)
					} else {
						err = ep.Send(append(bytes.Clone(m.real), make([]byte, m.pad)...))
					}
					out.fails = append(out.fails, err != nil)
				}
				clk.Advance(gaps[i])
			}
			clk.Advance(2 * time.Minute)
			out.net = [2]netem.Stats{conn.Links.Down.Stats(), conn.Links.Up.Stats()}
			out.ep = [2]Stats{conn.A.Stats(), conn.B.Stats()}
			return out
		}
		pad, mat := run(true), run(false)
		if pad.net != mat.net || pad.ep != mat.ep || !slices.Equal(pad.fails, mat.fails) {
			t.Logf("seed %d rule %v: counters differ\n padded       net %+v ep %+v\n materialized net %+v ep %+v",
				seed, rule, pad.net, pad.ep, mat.net, mat.ep)
			return false
		}
		for dir := range pad.got {
			if len(pad.got[dir]) != len(mat.got[dir]) {
				t.Logf("seed %d dir %d: %d padded deliveries, %d materialized", seed, dir, len(pad.got[dir]), len(mat.got[dir]))
				return false
			}
			for i, p := range pad.got[dir] {
				m := mat.got[dir][i]
				if p.seq != m.seq || p.latency != m.latency ||
					len(p.payload) > len(m.payload) || !bytes.Equal(p.payload, m.payload[:len(p.payload)]) {
					t.Logf("seed %d dir %d delivery %d: padded (%d, %v, %d bytes), materialized (%d, %v, %d bytes)",
						seed, dir, i, p.seq, p.latency, len(p.payload), m.seq, m.latency, len(m.payload))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomImpairment draws a netem rule mixing every impairment: delay
// with correlated jitter in any distribution, correlated i.i.d. or
// Gilbert–Elliott loss, corruption, duplication, reordering with a gap,
// rate limiting and a queue limit.
func randomImpairment(rng *rand.Rand) netem.Rule {
	r := netem.Rule{
		Delay:     time.Duration(rng.Intn(60)) * time.Millisecond,
		Jitter:    time.Duration(rng.Intn(20)) * time.Millisecond,
		DelayCorr: rng.Float64() * 0.5,
		Dist:      netem.Distribution(rng.Intn(3)),
		Corrupt:   rng.Float64() * 0.1,
		Duplicate: rng.Float64() * 0.1,
		Reorder:   rng.Float64() * 0.3,
		Gap:       rng.Intn(4),
	}
	if rng.Intn(2) == 0 {
		r.Loss, r.LossCorr = rng.Float64()*0.1, rng.Float64()*0.5
	} else {
		r.GE = &netem.GilbertElliott{
			PGoodToBad: rng.Float64() * 0.05, PBadToGood: 0.2 + rng.Float64()*0.5,
			LossGood: rng.Float64() * 0.02, LossBad: 0.2 + rng.Float64()*0.5,
		}
	}
	if rng.Intn(2) == 0 {
		r.Rate = 1e5 + rng.Float64()*1e7 // 0.1–10 MB/s
	}
	if rng.Intn(2) == 0 {
		r.Limit = 20 + rng.Intn(500)
	}
	return r
}
