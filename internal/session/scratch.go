package session

import (
	"sync"

	"teledrive/internal/trace"
	"teledrive/internal/transport"
	"teledrive/internal/world"
)

// RunScratch is one executor worker's reusable run arena: everything a
// drive allocates that the next drive can recycle. Each Execute/Stream
// worker owns exactly one RunScratch and threads it through every cell
// it executes (via rds.BenchConfig.Scratch; rds.Run gives a run without
// one a private arena); Reset between runs retains all capacity, so in
// steady state the per-cell cost is construction and simulation, not
// garbage.
//
//   - Pools feeds the transport endpoints and netem links: fragment and
//     payload buffers, segment records, reassembly state. It reaches the
//     stack through transport.Options.Pools.
//   - World recycles the world's actor slab, id index, and detection
//     scratch (world.Arena).
//   - Log is the telemetry RunLog, its record slices reused at capacity.
//
// RunScratch is not safe for concurrent use: never share one between
// concurrently executing cells. Bit-identity is unaffected by reuse —
// the pooled-fingerprint CI stage drives every canonical cell twice
// through one scratch and checks both runs against the goldens.
type RunScratch struct {
	Pools *transport.Pools
	World *world.Arena
	Log   trace.RunLog
}

// NewRunScratch returns an empty arena.
func NewRunScratch() *RunScratch {
	return &RunScratch{
		Pools: transport.NewPools(),
		World: world.NewArena(),
	}
}

// Reset prepares the arena for the next run, retaining every allocation.
// The previous run's Log contents become invalid. Reset performs no
// allocations (pinned by a steady-state test).
func (s *RunScratch) Reset() {
	s.Log.Reset()
	// Pools and World recycle implicitly: freed buffers stay in their
	// freelists, and the world arena resets in place on its next
	// NewWorld. Nothing to clear here — a run returns its storage as it
	// ends (acks recycle segments, the arena owns the world).
}

// Arenas is a bounded freelist of run arenas, safe for concurrent use.
// Executor workers take their arena from one for the length of their
// job stream and return it afterwards, so an Arenas that outlives a call
// — the hub's — keeps arenas warm from one batch to the next (a cold
// arena costs a drive many times its warm allocation). At most max idle
// arenas are kept: a burst must not pin its peak footprint forever.
type Arenas struct {
	mu   sync.Mutex
	max  int
	free []*RunScratch
}

// NewArenas returns an empty freelist that keeps at most max idle
// arenas.
func NewArenas(max int) *Arenas { return &Arenas{max: max} }

// Get pops an idle arena or makes a fresh one.
func (a *Arenas) Get() *RunScratch {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return s
	}
	return NewRunScratch()
}

// Put returns an arena to the freelist, or drops it beyond the bound.
func (a *Arenas) Put(s *RunScratch) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free) < a.max {
		a.free = append(a.free, s)
	}
}
