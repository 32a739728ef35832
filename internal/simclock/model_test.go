package simclock

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// modelEntry is one pending timer in the reference model.
type modelEntry struct {
	at  time.Duration
	seq uint64
	id  int
}

// clockHarness drives a Clock and a sorted-slice reference model with
// the same operations. The model keeps its pending timers sorted by
// (at, seq) and numbers every scheduling call exactly as the clock
// does, so the earliest model entry is, by definition, the timer the
// clock must fire next. Every fire is checked against it as it happens.
type clockHarness struct {
	t   *testing.T
	rng *rand.Rand
	c   *Clock

	now     time.Duration
	seq     uint64
	pending []modelEntry

	nextID  int
	gen     map[int]int    // id -> spawn generation
	handles map[int]*Timer // every Schedule/ScheduleAt timer, by id
	ids     []int          // keys of handles, in scheduling order
	owned   []*Timer       // NewTimer timers, re-armed with Reschedule(At)
	ownedID []int          // id of each owned timer's latest arming
	fired   int
}

type modelTask struct {
	h  *clockHarness
	id int
}

func (m *modelTask) Fire(now time.Duration) { m.h.onFire(m.id, now) }

func newClockHarness(t *testing.T, seed int64) *clockHarness {
	h := &clockHarness{
		t:       t,
		rng:     rand.New(rand.NewSource(seed)),
		c:       New(),
		gen:     map[int]int{},
		handles: map[int]*Timer{},
	}
	for k := 0; k < 4; k++ {
		k := k
		h.owned = append(h.owned, h.c.NewTimer(func(now time.Duration) { h.onFire(h.ownedID[k], now) }))
		h.ownedID = append(h.ownedID, -1)
	}
	return h
}

// enqueue records a scheduling call in the model: the clamped deadline
// and the next sequence number.
func (h *clockHarness) enqueue(at time.Duration, gen int) int {
	if at < h.now {
		at = h.now
	}
	id := h.nextID
	h.nextID++
	h.gen[id] = gen
	e := modelEntry{at: at, seq: h.seq, id: id}
	h.seq++
	i := sort.Search(len(h.pending), func(i int) bool {
		p := h.pending[i]
		return p.at > e.at || (p.at == e.at && p.seq > e.seq)
	})
	h.pending = append(h.pending, modelEntry{})
	copy(h.pending[i+1:], h.pending[i:])
	h.pending[i] = e
	return id
}

func (h *clockHarness) modelIndex(id int) int {
	for i, e := range h.pending {
		if e.id == id {
			return i
		}
	}
	return -1
}

// delay draws a relative delay on a coarse grid, so many timers share
// an instant; some are negative and must clamp to now.
func (h *clockHarness) delay() time.Duration {
	return time.Duration(h.rng.Intn(7)-1) * time.Millisecond
}

// schedule issues one randomly chosen scheduling call on both sides.
func (h *clockHarness) schedule(gen int) {
	d := h.delay()
	at := h.now + d
	switch h.rng.Intn(6) {
	case 0:
		id := h.enqueue(h.now+max(d, 0), gen)
		h.handles[id] = h.c.Schedule(d, func(now time.Duration) { h.onFire(id, now) })
		h.ids = append(h.ids, id)
	case 1:
		id := h.enqueue(at, gen)
		h.handles[id] = h.c.ScheduleAt(at, func(now time.Duration) { h.onFire(id, now) })
		h.ids = append(h.ids, id)
	case 2:
		id := h.enqueue(h.now+max(d, 0), gen)
		h.c.ScheduleTask(d, &modelTask{h, id})
	case 3:
		id := h.enqueue(at, gen)
		h.c.ScheduleTaskAt(at, &modelTask{h, id})
	default:
		k := h.rng.Intn(len(h.owned))
		tm := h.owned[k]
		if i := h.modelIndex(h.ownedID[k]); i >= 0 {
			// Re-arming a pending timer is a bug; cancel it first.
			if !h.c.Cancel(tm) {
				h.t.Fatalf("Cancel of pending owned timer %d returned false", h.ownedID[k])
			}
			h.pending = append(h.pending[:i], h.pending[i+1:]...)
		}
		if h.rng.Intn(2) == 0 {
			h.ownedID[k] = h.enqueue(h.now+max(d, 0), gen)
			h.c.Reschedule(tm, d)
		} else {
			h.ownedID[k] = h.enqueue(at, gen)
			h.c.RescheduleAt(tm, at)
		}
	}
}

// onFire checks one fire against the model's earliest entry and may
// schedule follow-up timers from inside the callback, including at the
// current instant.
func (h *clockHarness) onFire(id int, now time.Duration) {
	if len(h.pending) == 0 {
		h.t.Fatalf("timer %d fired at %v, model has nothing pending", id, now)
	}
	want := h.pending[0]
	if id != want.id || now != want.at {
		h.t.Fatalf("fired timer %d at %v, model expects %d at %v (seq %d)", id, now, want.id, want.at, want.seq)
	}
	if h.c.Now() != now {
		h.t.Fatalf("Now() = %v inside callback at %v", h.c.Now(), now)
	}
	h.pending = h.pending[1:]
	h.now = now
	h.fired++
	if g := h.gen[id]; g < 3 && h.rng.Intn(3) == 0 {
		for n := 1 + h.rng.Intn(2); n > 0; n-- {
			h.schedule(g + 1)
		}
	}
}

// cancel cancels a random handle timer — pending, fired or already
// cancelled — or an owned timer's latest arming, and checks the result
// against the model.
func (h *clockHarness) cancel() {
	var id int
	var tm *Timer
	if k := h.rng.Intn(len(h.owned) + 4); k < len(h.owned) {
		id, tm = h.ownedID[k], h.owned[k]
	} else if len(h.ids) > 0 {
		id = h.ids[h.rng.Intn(len(h.ids))]
		tm = h.handles[id]
	} else {
		return
	}
	i := h.modelIndex(id)
	if got, want := h.c.Cancel(tm), i >= 0; got != want {
		h.t.Fatalf("Cancel(timer %d) = %v, model says pending=%v", id, got, want)
	}
	if i >= 0 {
		h.pending = append(h.pending[:i], h.pending[i+1:]...)
	}
	if !tm.Stopped() {
		h.t.Fatalf("timer %d not Stopped after Cancel", id)
	}
}

// advance runs one of Advance, AdvanceTo, Step or Run and checks what
// the model says must have fired.
func (h *clockHarness) advance() {
	before := h.fired
	switch h.rng.Intn(4) {
	case 0:
		d := time.Duration(h.rng.Intn(4)) * time.Millisecond
		to := h.now + d // callbacks move h.now
		h.c.Advance(d)
		h.settle(to)
	case 1:
		to := h.now + time.Duration(h.rng.Intn(4))*time.Millisecond
		h.c.AdvanceTo(to)
		h.settle(to)
	case 2:
		empty := len(h.pending) == 0
		if got := h.c.Step(); got == empty {
			h.t.Fatalf("Step() = %v with %d pending in the model", got, len(h.pending))
		}
		if !empty && h.fired != before+1 {
			h.t.Fatalf("Step fired %d timers, want 1", h.fired-before)
		}
	default:
		limit := 1 + h.rng.Intn(5)
		n := h.c.Run(limit)
		if n != h.fired-before {
			h.t.Fatalf("Run(%d) = %d, callbacks saw %d", limit, n, h.fired-before)
		}
		if n < limit && len(h.pending) != 0 {
			h.t.Fatalf("Run(%d) stopped after %d with %d pending in the model", limit, n, len(h.pending))
		}
	}
}

// settle checks the end of an AdvanceTo(to): nothing due remains and
// the clock reads to.
func (h *clockHarness) settle(to time.Duration) {
	if len(h.pending) > 0 && h.pending[0].at <= to {
		h.t.Fatalf("AdvanceTo(%v) left timer %d due at %v", to, h.pending[0].id, h.pending[0].at)
	}
	h.now = to
	if h.c.Now() != to {
		h.t.Fatalf("Now() = %v after AdvanceTo(%v)", h.c.Now(), to)
	}
}

// checkState compares PendingTimers, NextAt and every handle's Stopped
// with the model.
func (h *clockHarness) checkState() {
	if got := h.c.PendingTimers(); got != len(h.pending) {
		h.t.Fatalf("PendingTimers() = %d, model has %d", got, len(h.pending))
	}
	at, ok := h.c.NextAt()
	if ok != (len(h.pending) > 0) || ok && at != h.pending[0].at {
		h.t.Fatalf("NextAt() = %v,%v, model head %v", at, ok, h.pending)
	}
	pending := make(map[int]bool, len(h.pending))
	for _, e := range h.pending {
		pending[e.id] = true
	}
	for k, tm := range h.owned {
		if got, want := tm.Stopped(), !pending[h.ownedID[k]]; got != want {
			h.t.Fatalf("owned timer %d: Stopped() = %v, want %v", h.ownedID[k], got, want)
		}
	}
	for _, id := range h.ids {
		if got, want := h.handles[id].Stopped(), !pending[id]; got != want {
			h.t.Fatalf("timer %d: Stopped() = %v, want %v", id, got, want)
		}
	}
}

// TestClockMatchesSortedModel is a seeded random property test of the
// timer queue against a sorted-slice model keyed by (at, seq): mixed
// scheduling calls, cancels of pending, fired and cancelled timers,
// callbacks that schedule at their own instant, heavy same-instant ties,
// and every way of advancing the clock.
func TestClockMatchesSortedModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		h := newClockHarness(t, seed)
		for op := 0; op < 400; op++ {
			switch k := h.rng.Intn(10); {
			case k < 5:
				h.schedule(0)
			case k < 7:
				h.cancel()
			default:
				h.advance()
			}
			h.checkState()
		}
		h.c.Run(0)
		if len(h.pending) != 0 {
			t.Fatalf("seed %d: Run(0) left %d timers in the model", seed, len(h.pending))
		}
		h.checkState()
	}
}

// churnTask re-arms itself one period after every fire, the steady
// state of the netem delivery queue and the transport timers.
type churnTask struct {
	c      *Clock
	period time.Duration
}

func (k *churnTask) Fire(now time.Duration) { k.c.ScheduleTaskAt(now+k.period, k) }

// newChurnClock returns a clock holding n pooled tasks with staggered
// deadlines and co-prime-ish periods, so pops interleave across the heap.
func newChurnClock(n int) *Clock {
	c := New()
	for i := 0; i < n; i++ {
		k := &churnTask{c: c, period: time.Duration(17+i%23) * time.Millisecond}
		c.ScheduleTaskAt(time.Duration(i)*time.Millisecond, k)
	}
	return c
}

// churnDepth is the pending-timer depth of an impaired-link drive.
const churnDepth = 70

// TestClockChurnAllocs pins the steady state of the pooled path: one
// fire plus one ScheduleTaskAt on a ~70-deep queue allocates nothing.
func TestClockChurnAllocs(t *testing.T) {
	c := newChurnClock(churnDepth)
	c.Run(10 * churnDepth) // warm the freelist
	if allocs := testing.AllocsPerRun(1000, func() { c.Step() }); allocs != 0 {
		t.Fatalf("steady-state fire + ScheduleTaskAt allocates %v/op, want 0", allocs)
	}
	if n := c.PendingTimers(); n != churnDepth {
		t.Fatalf("PendingTimers() = %d, want %d", n, churnDepth)
	}
}

// BenchmarkClockChurn measures one steady-state pop + push with ~70
// pending pooled tasks.
func BenchmarkClockChurn(b *testing.B) {
	c := newChurnClock(churnDepth)
	c.Run(10 * churnDepth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
