package main

import (
	"fmt"
	"sync"
	"time"

	"teledrive/internal/bridge"
	"teledrive/internal/session"
	"teledrive/internal/simclock"
	"teledrive/internal/transport"
	"teledrive/internal/world"
)

// cellClock times untraced cells at a public seam: it is a pass-through
// session.StackBuilder (set through core.RunSpec.Stack,
// hub.SessionSpec's rds.BenchConfig.NewStack or validity.Env.NewStack)
// that starts a cell's clock when its stack is built and stops it when
// the session stops the plant. Safe for concurrent use by the
// executors' workers.
type cellClock struct {
	mu  sync.Mutex
	lat []time.Duration // host time per cell, stack build → plant Stop
	sim time.Duration   // simulated time summed over the stopped cells
}

// stack is the session.StackBuilder: session.NewStack with the plant
// wrapped so its Stop is observed.
func (c *cellClock) stack(clock *simclock.Clock, w *world.World, ego *world.Actor, seed int64, topts transport.Options) (*session.Stack, error) {
	start := hostNow()
	st, err := session.NewStack(clock, w, ego, seed, topts)
	if err != nil {
		return nil, err
	}
	srv, ok := st.Plant.(*bridge.Server)
	if !ok {
		return nil, fmt.Errorf("perfbench: standard stack built plant %T, want *bridge.Server", st.Plant)
	}
	st.Plant = &timedPlant{Server: srv, clock: clock, cells: c, start: start}
	return st, nil
}

// reset empties the samples before a timed round.
func (c *cellClock) reset() {
	c.mu.Lock()
	c.lat = c.lat[:0]
	c.sim = 0
	c.mu.Unlock()
}

// take returns the samples recorded since the last reset.
func (c *cellClock) take() ([]time.Duration, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.lat...), c.sim
}

// timedPlant embeds the bridge server, so every method rds.Run
// type-asserts on the plant (SetDeltaStreaming, SetInstruments) is
// still there; only Stop is intercepted.
type timedPlant struct {
	*bridge.Server
	clock *simclock.Clock
	cells *cellClock
	start time.Time
}

// Stop stops the server and records the cell's host latency and its
// simulated duration.
func (p *timedPlant) Stop() {
	p.Server.Stop()
	d := hostNow().Sub(p.start)
	c := p.cells
	c.mu.Lock()
	c.lat = append(c.lat, d)
	c.sim += p.clock.Now()
	c.mu.Unlock()
}
