package netem

import (
	"strings"
	"testing"
	"time"

	"teledrive/internal/simclock"
)

func TestCaptureRecordsAndForwards(t *testing.T) {
	clk := simclock.New()
	forwarded := 0
	cap := Tap(func(Packet) { forwarded++ }, 0)
	link := NewLink("t", clk, 1, cap.Receive)
	link.AddRule(Rule{Delay: 10 * time.Millisecond})
	for i := 0; i < 50; i++ {
		link.SendPadded(make([]byte, 60), 40) // Size counts the virtual pad
		clk.Advance(time.Millisecond)
	}
	clk.Advance(time.Second)
	if forwarded != 50 || len(cap.Records()) != 50 {
		t.Fatalf("forwarded=%d records=%d", forwarded, len(cap.Records()))
	}
	r := cap.Records()[0]
	if r.Latency() != 10*time.Millisecond || r.Size != 100 {
		t.Fatalf("record = %+v", r)
	}
}

func TestCaptureNilNext(t *testing.T) {
	clk := simclock.New()
	cap := Tap(nil, 10)
	link := NewLink("t", clk, 1, cap.Receive)
	link.Send([]byte("x"))
	clk.Advance(time.Millisecond)
	if len(cap.Records()) != 1 {
		t.Fatal("nil-next capture dropped the record")
	}
}

func TestCaptureLimit(t *testing.T) {
	clk := simclock.New()
	cap := Tap(nil, 5)
	link := NewLink("t", clk, 1, cap.Receive)
	for i := 0; i < 20; i++ {
		link.Send([]byte("x"))
		clk.Advance(time.Millisecond)
	}
	if len(cap.Records()) != 5 {
		t.Fatalf("records = %d, want capped at 5", len(cap.Records()))
	}
}

func TestCaptureSummary(t *testing.T) {
	clk := simclock.New()
	cap := Tap(nil, 0)
	link := NewLink("t", clk, 3, cap.Receive)
	link.AddRule(Rule{Delay: 20 * time.Millisecond, Jitter: 10 * time.Millisecond, Duplicate: 0.2, Limit: 100000})
	for i := 0; i < 500; i++ {
		link.Send(make([]byte, 64))
		clk.Advance(time.Millisecond)
	}
	clk.Advance(time.Second)
	s := cap.Summarize()
	if s.Packets < 500 {
		t.Fatalf("packets = %d", s.Packets)
	}
	if s.Duplicates == 0 {
		t.Fatal("no duplicates recorded")
	}
	if s.P0 > s.P50 || s.P50 > s.P95 || s.P95 > s.P100 {
		t.Fatalf("quantiles not ordered: %+v", s)
	}
	if s.P0 < 10*time.Millisecond || s.P100 > 30*time.Millisecond {
		t.Fatalf("latency range: %+v", s)
	}
	if s.Reordered == 0 {
		t.Fatal("jitter should reorder some deliveries")
	}
	if s.Bytes != int64(s.Packets)*64 {
		t.Fatalf("bytes = %d", s.Bytes)
	}
}

func TestCaptureEmptySummary(t *testing.T) {
	cap := Tap(nil, 0)
	if s := cap.Summarize(); s.Packets != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestCaptureReset(t *testing.T) {
	clk := simclock.New()
	cap := Tap(nil, 0)
	link := NewLink("t", clk, 1, cap.Receive)
	link.Send([]byte("x"))
	clk.Advance(time.Millisecond)
	cap.Reset()
	if len(cap.Records()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestCaptureHistogram(t *testing.T) {
	clk := simclock.New()
	cap := Tap(nil, 0)
	link := NewLink("t", clk, 5, cap.Receive)
	link.AddRule(Rule{Delay: 30 * time.Millisecond, Jitter: 20 * time.Millisecond, Limit: 100000})
	for i := 0; i < 300; i++ {
		link.Send([]byte("x"))
		clk.Advance(time.Millisecond)
	}
	clk.Advance(time.Second)
	var sb strings.Builder
	cap.WriteHistogram(&sb, 10)
	out := sb.String()
	if strings.Count(out, "\n") != 10 {
		t.Fatalf("histogram lines:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatal("histogram has no bars")
	}
	// Empty capture degrades gracefully.
	sb.Reset()
	Tap(nil, 0).WriteHistogram(&sb, 10)
	if !strings.Contains(sb.String(), "no packets") {
		t.Fatal("empty histogram message missing")
	}
}
