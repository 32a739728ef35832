// Package hub hosts many concurrent operator↔plant sessions in one
// process — the multi-tenant teleoperation control room of DESIGN.md
// §14. Each session owns its own simulated clock, world, netem link
// profile, and run arena, so sessions are mutually deterministic:
// hosting N of them concurrently produces bit-identical trajectories to
// running each alone (the equivalence test pins every canonical
// fingerprint cell through a hub). Immutable scenario artifacts (road
// map, blended route) are shared across all sessions via one
// scenario.ArtifactCache, and run arenas recycle through a freelist
// sized by the worker bound.
//
// The package has two halves. The in-process half (Run, RunMany)
// executes rds sessions — RunMany through the shared cell executor —
// the campaign-style batch path the hub benchmarks drive. The serving
// half (Serve, Station) exposes the same hosting over one shared TCP
// listener: remote stations join by scenario name and exchange
// session-id-routed bridge traffic with a live per-session bridge.Server
// (wire.go, serve.go, station.go).
package hub

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"teledrive/internal/rds"
	"teledrive/internal/scenario"
	"teledrive/internal/session"
	"teledrive/internal/telemetry"
)

// Config configures a Hub.
type Config struct {
	// Workers bounds concurrently executing sessions in RunMany and
	// sizes the run-arena freelist. Non-positive means GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, instruments the hub (session gauge/counters)
	// and every hosted session (per-session teledrive_hub_* families for
	// served sessions, the shared bridge families for batch runs).
	Metrics *telemetry.Registry
	// Turbo lets served sessions advance simulated time as fast as the
	// host allows instead of pacing to the wall clock. Batch runs (Run,
	// RunMany) always run turbo — they have no live operator to pace for.
	Turbo bool
}

// Hub hosts sessions. Safe for concurrent use.
type Hub struct {
	cfg  Config
	arts *scenario.ArtifactCache
	ins  *Instruments // nil when Config.Metrics is nil

	active atomic.Int64 // sessions currently executing (batch + served)
	nextID atomic.Uint64

	// arenas recycles run arenas across batch and served sessions,
	// bounded by the worker count.
	arenas *session.Arenas

	mu     sync.Mutex
	conns  map[*hubConn]struct{}
	closed bool
}

// New builds a hub.
func New(cfg Config) *Hub {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	h := &Hub{
		cfg:    cfg,
		arts:   scenario.NewArtifactCache(),
		arenas: session.NewArenas(cfg.Workers),
		conns:  make(map[*hubConn]struct{}),
	}
	if cfg.Metrics != nil {
		h.ins = NewInstruments(cfg.Metrics)
	}
	return h
}

// Artifacts exposes the hub's shared artifact cache (tests assert
// pointer identity across sessions through it).
func (h *Hub) Artifacts() *scenario.ArtifactCache { return h.arts }

// ActiveSessions reports how many sessions are executing right now.
func (h *Hub) ActiveSessions() int { return int(h.active.Load()) }

// SessionSpec describes one batch-hosted session: an rds run plus a hub
// display name. The hub owns the sharing fields — Scratch, Artifacts,
// and Metrics in the embedded config are overwritten.
type SessionSpec struct {
	rds.BenchConfig
	// Name labels the session in results and telemetry; empty defaults
	// to the scenario name.
	Name string
}

// SessionResult is one finished batch session.
type SessionResult struct {
	ID   uint64
	Name string
	// Outcome is the run outcome. Its Log aliases a recycled arena and
	// is only valid until the hub reuses the scratch — consume Digest
	// (taken before release) for anything that must outlive the result
	// handling.
	Outcome *rds.Outcome
	// Artifact is the shared immutable scenario artifact this session
	// built its world from — the same pointer for every session that
	// agreed on the scenario.
	Artifact *scenario.Artifact
	// Digest is the run's equivalence digest (rds.OutcomeDigest), taken
	// while the log was still valid.
	Digest string
	Err    error
}

// Run executes one batch session synchronously on the caller's
// goroutine, sharing the hub's artifact cache and arena freelist.
func (h *Hub) Run(spec SessionSpec) SessionResult {
	scr := h.arenas.Get()
	defer h.arenas.Put(scr)
	return h.run(spec, scr)
}

// RunMany executes the specs through the shared cell executor
// (session.Execute, the hub's Workers wide, each worker holding one of
// the hub's run arenas) and returns results in spec order. A failed
// session never stops the others: its error stays in its SessionResult.
func (h *Hub) RunMany(specs []SessionSpec) []SessionResult {
	results, _, _ := session.Execute(len(specs), h.cfg.Workers, h.arenas, func(scr *session.RunScratch, _, i int) (SessionResult, error) {
		return h.run(specs[i], scr), nil
	})
	return results
}

// run executes one batch session over the run arena scr.
func (h *Hub) run(spec SessionSpec, scr *session.RunScratch) SessionResult {
	res := SessionResult{ID: h.nextID.Add(1), Name: spec.Name}
	if res.Name == "" && spec.Scenario != nil {
		res.Name = spec.Scenario.Name
	}
	if spec.Scenario == nil {
		res.Err = fmt.Errorf("hub: session %q has no scenario", res.Name)
		return res
	}
	art, err := h.arts.Get(spec.Scenario)
	if err != nil {
		res.Err = fmt.Errorf("hub: session %q artifact: %w", res.Name, err)
		return res
	}
	res.Artifact = art

	cfg := spec.BenchConfig
	cfg.Scratch = scr
	cfg.Artifacts = h.arts
	cfg.Metrics = h.cfg.Metrics

	h.active.Add(1)
	if h.ins != nil {
		h.ins.SessionsActive.Inc()
	}
	defer func() {
		h.active.Add(-1)
		if h.ins != nil {
			h.ins.SessionsActive.Dec()
			h.ins.sessionDone(res)
		}
	}()

	out, err := rds.Run(cfg)
	if err != nil {
		res.Err = err
		return res
	}
	res.Outcome = out
	// Digest now: the log dies when the arena runs its next session.
	res.Digest = rds.OutcomeDigest(out)
	return res
}
