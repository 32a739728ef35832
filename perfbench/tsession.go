package main

import (
	"errors"
	"fmt"
	"time"

	"teledrive/internal/bridge"
	"teledrive/internal/driver"
	"teledrive/internal/faultinject"
	"teledrive/internal/netem"
	"teledrive/internal/rds"
	"teledrive/internal/scenario"
	"teledrive/internal/sensors"
	"teledrive/internal/session"
	"teledrive/internal/simclock"
	"teledrive/internal/trace"
	"teledrive/internal/transport"
	"teledrive/internal/world"
)

// tally sums the simulated counters of traced cells. Every field is a
// pure function of the cells' inputs: a change that only speeds up the
// simulator leaves all of them unchanged.
type tally struct {
	cells       uint64
	worldTicks  uint64
	srv         bridge.ServerStats
	cli         bridge.ClientStats
	fragments   uint64
	retransmits uint64
	corrupt     uint64
	windowRej   uint64
	outOfOrder  uint64
	acksSent    uint64
	netSent     uint64
	netBytes    uint64
	netLost     uint64
	netTail     uint64
	// frameLatency holds the simulated transport latency of every frame
	// the station displayed.
	frameLatency []time.Duration
}

func (t *tally) addServer(s bridge.ServerStats) {
	t.srv.FramesSent += s.FramesSent
	t.srv.FramesDropped += s.FramesDropped
	t.srv.DeltasSent += s.DeltasSent
	t.srv.EventsDropped += s.EventsDropped
	t.srv.ProtocolErrors += s.ProtocolErrors
}

func (t *tally) addClient(c bridge.ClientStats) {
	t.cli.FramesReceived += c.FramesReceived
	t.cli.FramesStale += c.FramesStale
	t.cli.ControlsDropped += c.ControlsDropped
	t.cli.ProtocolErrors += c.ProtocolErrors
}

func (t *tally) addEndpoint(s transport.Stats) {
	t.fragments += s.FragmentsSent
	t.retransmits += s.Retransmits
	t.corrupt += s.CorruptDropped
	t.windowRej += s.WindowRejects
	t.outOfOrder += s.OutOfOrderHeld
	t.acksSent += s.AcksSent
}

func (t *tally) addLink(s netem.Stats) {
	t.netSent += s.Sent
	t.netBytes += s.BytesSent
	t.netLost += s.Lost
	t.netTail += s.TailDropped
}

func (t *tally) merge(o *tally) {
	t.cells += o.cells
	t.worldTicks += o.worldTicks
	t.addServer(o.srv)
	t.addClient(o.cli)
	t.fragments += o.fragments
	t.retransmits += o.retransmits
	t.corrupt += o.corrupt
	t.windowRej += o.windowRej
	t.outOfOrder += o.outOfOrder
	t.acksSent += o.acksSent
	t.netSent += o.netSent
	t.netBytes += o.netBytes
	t.netLost += o.netLost
	t.netTail += o.netTail
	t.frameLatency = append(t.frameLatency, o.frameLatency...)
}

// timedObserver wraps the trace recorder's spine subscription so every
// recorder event is one trace.sample span.
type timedObserver struct {
	inner session.Observer
	tr    *spanTracer
}

func (o timedObserver) RunPhase(p session.Phase, now time.Duration) {
	o.tr.begin(traceSample)
	o.inner.RunPhase(p, now)
	o.tr.end()
}

func (o timedObserver) Tick(now time.Duration) {
	o.tr.begin(traceSample)
	o.inner.Tick(now)
	o.tr.end()
}

func (o timedObserver) Frame(now time.Duration, frame uint64, latency time.Duration) {
	o.tr.begin(traceSample)
	o.inner.Frame(now, frame, latency)
	o.tr.end()
}

func (o timedObserver) Fault(now time.Duration, link, action, desc, label string) {
	o.tr.begin(traceSample)
	o.inner.Fault(now, link, action, desc, label)
	o.tr.end()
}

func (o timedObserver) Collision(ev world.CollisionEvent) {
	o.tr.begin(traceSample)
	o.inner.Collision(ev)
	o.tr.end()
}

func (o timedObserver) LaneInvasion(ev world.LaneInvasionEvent) {
	o.tr.begin(traceSample)
	o.inner.LaneInvasion(ev)
	o.tr.end()
}

func (o timedObserver) Condition(now time.Duration, label string) {
	o.tr.begin(traceSample)
	o.inner.Condition(now, label)
	o.tr.end()
}

// runChunk is session.Session's default clock-advance granularity.
const runChunk = 100 * time.Millisecond

// errUntraceable rejects configurations the traced session does not
// reproduce: it rebuilds only the standard stack without telemetry.
var errUntraceable = errors.New("traced session: only the standard stack without telemetry, observers or station taps can be traced")

// runTraced executes one drive exactly as rds.Run and session.Session.Run
// do — the same public constructors, wired in the same order, so every
// clock sequence number and RNG draw matches — but with a timing span
// at every interface seam, and with the clock advanced one timer at a
// time (Clock.Step) so that each fire is charged to one layer. Its
// outcome digest must equal the untraced run's; the benchmark checks
// that for every traced cell.
func runTraced(cfg rds.BenchConfig, tr *spanTracer, tl *tally) (*rds.Outcome, error) {
	if cfg.NewStack != nil || cfg.Metrics != nil || cfg.Events != nil ||
		cfg.Observers != nil || cfg.OnStationFrame != nil || cfg.Station != nil {
		return nil, errUntraceable
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	station := rds.PaperStation()
	topts := transport.Options{Name: "bridge", Reliable: true}
	if cfg.Transport != nil {
		topts = *cfg.Transport
	}
	if topts.Pools == nil {
		if cfg.Scratch != nil {
			topts.Pools = cfg.Scratch.Pools
		} else {
			topts.Pools = transport.NewPools()
		}
	}
	if cfg.Scratch != nil {
		cfg.Scratch.Reset()
	}

	var built *scenario.Built
	var err error
	tr.timed(scenarioBuild, func() { built, err = buildScenario(cfg) })
	if err != nil {
		return nil, err
	}

	tr.begin(sessionWire)
	clock := simclock.New()
	st, err := newTracedStack(clock, built.World, built.Ego, cfg.Seed, topts, tr)
	if err != nil {
		tr.end()
		return nil, err
	}
	srv, cli, links := st.srv, st.cli, st.links

	runType := "faulty"
	if cfg.IsGolden() && cfg.PersistentRule == nil {
		runType = "golden"
	}
	log := &trace.RunLog{}
	if cfg.Scratch != nil {
		log = &cfg.Scratch.Log
	}
	log.Subject = cfg.Profile.Name
	log.Scenario = cfg.Scenario.Name
	log.RunType = runType
	log.Seed = cfg.Seed
	rec := trace.NewPassiveRecorder(built.World, built.Ego, built.Route, log)
	spine := session.Observers{timedObserver{inner: session.Record(rec), tr: tr}}

	cli.OnFrame = func(view sensors.WorldView, latency time.Duration) {
		tl.frameLatency = append(tl.frameLatency, latency)
		spine.Frame(clock.Now(), view.Frame, latency)
	}

	inj, err := faultinject.NewInjector(links, clock.Now)
	if err != nil {
		tr.end()
		return nil, err
	}
	inj.OnChange = spine.Fault
	inj.Direction = cfg.InjectDirection

	dcfg := driver.DefaultConfig(cfg.Profile, built.Task)
	if cfg.DriverConfig != nil {
		dcfg = *cfg.DriverConfig
		dcfg.Profile = cfg.Profile
		dcfg.Task = built.Task
	}
	drv, err := driver.New(clock, cli, dcfg)
	if err != nil {
		tr.end()
		return nil, err
	}
	sup := session.NewPOISupervisor(cfg.Scenario, built.Ego, built.Route, inj, cfg.FaultAssignments, spine)
	sup.SetRuleAssignments(cfg.FaultRules)

	// session.Session.Run's wire phase, in its scheduling order:
	// operator loop, then the stack-specific wiring, then the plant.
	spine.RunPhase(session.PhaseWire, clock.Now())
	w := built.World
	prevCol := w.OnCollision
	w.OnCollision = func(ev world.CollisionEvent) {
		if prevCol != nil {
			prevCol(ev)
		}
		spine.Collision(ev)
	}
	prevLane := w.OnLaneInvasion
	w.OnLaneInvasion = func(ev world.LaneInvasionEvent) {
		if prevLane != nil {
			prevLane(ev)
		}
		spine.LaneInvasion(ev)
	}
	var wallTicks, controlsDropped uint64
	srv.SetOnTick(func(now time.Duration) {
		tr.begin(worldStep)
		wallTicks++
		spine.Tick(now)
		tr.begin(supervisor)
		sup.OnTick(now)
		tr.end()
		tr.end()
	})
	var stationTimer *simclock.Timer
	stationTimer = clock.NewTimer(func(now time.Duration) {
		tr.begin(driverTick)
		ctrl := drv.Tick(now)
		tr.end()
		tr.begin(uplinkTx)
		err := cli.SendControl(ctrl)
		tr.end()
		if err != nil {
			controlsDropped++
		}
		clock.Reschedule(stationTimer, station.ControlPeriod)
	})
	clock.Reschedule(stationTimer, station.ControlPeriod)

	if err := wireStack(cfg, srv, cli, links, spine); err != nil {
		tr.end()
		return nil, err
	}
	srv.Start()
	spine.RunPhase(session.PhaseRun, clock.Now())
	tr.end()

	camera := func() uint64 {
		s := srv.Stats()
		return s.FramesSent + s.FramesDropped
	}
	tr.begin(clockLoop)
	for !sup.Done() && clock.Now() < cfg.Scenario.Timeout {
		target := clock.Now() + runChunk
		for {
			at, ok := clock.NextAt()
			if !ok || at > target {
				break
			}
			tr.step(clock, camera)
		}
		clock.AdvanceTo(target)
	}
	tr.end()

	tr.begin(sessionWire)
	srv.Stop()
	end := clock.Now()
	sup.Finish(end)
	spine.Condition(end, "")
	spine.RunPhase(session.PhaseTeardown, end)
	completed := sup.Done()
	out := &rds.Outcome{
		Log:              log,
		Completed:        completed,
		TimedOut:         !completed,
		Injected:         sup.Injected(),
		FailedInjections: sup.FailedInjections(),
		ServerStats:      srv.Stats(),
		ClientStats:      cli.Stats(),
		ControlsDropped:  controlsDropped,
		FinalStation:     sup.FinalStation(),
		WallTicks:        wallTicks,
	}
	for _, c := range log.Collisions {
		if c.Actor == built.Ego.ID || c.Other == built.Ego.ID {
			out.EgoCollisions++
		}
	}
	tr.end()

	tl.cells++
	tl.worldTicks += wallTicks
	tl.addServer(out.ServerStats)
	tl.addClient(out.ClientStats)
	tl.addEndpoint(st.vehicle.Stats())
	tl.addEndpoint(st.station.Stats())
	tl.addLink(links.Down.Stats())
	tl.addLink(links.Up.Stats())
	return out, nil
}

// buildScenario instantiates the cell's world the way rds.Run does:
// through the shared artifact and the worker's arena when the config
// carries them, else a cold Build.
func buildScenario(cfg rds.BenchConfig) (*scenario.Built, error) {
	if cfg.Artifacts == nil && cfg.Scratch == nil {
		return cfg.Scenario.Build()
	}
	var art *scenario.Artifact
	var err error
	if cfg.Artifacts != nil {
		art, err = cfg.Artifacts.Get(cfg.Scenario)
	} else {
		art, err = cfg.Scenario.BuildArtifact()
	}
	if err != nil {
		return nil, err
	}
	var arena *world.Arena
	if cfg.Scratch != nil {
		arena = cfg.Scratch.World
	}
	return cfg.Scenario.BuildWith(art, arena)
}

// wireStack is rds.Run's stack-specific wire hook: frame interval,
// delta streaming, the persistent link rule and the weather meta
// command, in that order.
func wireStack(cfg rds.BenchConfig, srv *bridge.Server, cli *bridge.Client, links *netem.Duplex, spine session.Observers) error {
	if cfg.FrameInterval > 0 {
		srv.SetFrameInterval(cfg.FrameInterval)
	}
	if cfg.DeltaStreaming {
		srv.SetDeltaStreaming(true, cfg.KeyframeEvery)
	}
	if cfg.PersistentRule != nil {
		if err := links.ApplyBoth(*cfg.PersistentRule); err != nil {
			return fmt.Errorf("traced session: persistent rule: %w", err)
		}
		label := cfg.PersistentLabel
		if label == "" {
			label = cfg.PersistentRule.String()
		}
		spine.Condition(0, label)
	}
	if cfg.Scenario.Weather != "" {
		if _, err := cli.SendMeta("set_weather", map[string]string{"weather": cfg.Scenario.Weather}); err != nil {
			return err
		}
	}
	return nil
}

// tracedStack is the bridge server/client pair over a netem duplex,
// with the vehicle and station endpoints kept for their counters.
type tracedStack struct {
	srv              *bridge.Server
	cli              *bridge.Client
	vehicle, station *transport.Endpoint
	links            *netem.Duplex
}

// newTracedStack builds what bridge.NewSessionWithTransport builds
// (through transport.Connect's construction order), with spans around
// the two link receivers and the two bridge handlers.
func newTracedStack(clock *simclock.Clock, w *world.World, ego *world.Actor, seed int64, topts transport.Options, tr *spanTracer) (*tracedStack, error) {
	optsA, optsB := topts, topts
	if optsA.Name == "" {
		optsA.Name, optsB.Name = "A", "B"
	} else {
		optsA.Name += "/A"
		optsB.Name += "/B"
	}
	var plantH, stationH transport.Handler
	a := transport.NewEndpoint(clock, optsA, func(payload []byte, seq uint64, lat time.Duration) {
		if plantH != nil {
			tr.begin(plantRx)
			plantH(payload, seq, lat)
			tr.end()
		}
	})
	b := transport.NewEndpoint(clock, optsB, func(payload []byte, seq uint64, lat time.Duration) {
		if stationH != nil {
			tr.begin(stationRx)
			stationH(payload, seq, lat)
			tr.end()
		}
	})
	links := netem.NewDuplex(clock, seed,
		func(pkt netem.Packet) {
			tr.begin(downRx)
			b.HandlePacket(pkt)
			tr.end()
		},
		func(pkt netem.Packet) {
			tr.begin(upRx)
			a.HandlePacket(pkt)
			tr.end()
		})
	if topts.Pools != nil {
		links.Down.SetBufferPool(topts.Pools.Net)
		links.Up.SetBufferPool(topts.Pools.Net)
	}
	a.AttachLink(links.Down)
	b.AttachLink(links.Up)
	srv, err := bridge.NewServer(clock, w, ego, a)
	if err != nil {
		return nil, err
	}
	cli, err := bridge.NewClient(clock, b)
	if err != nil {
		return nil, err
	}
	plantH, stationH = srv.Handler(), cli.Handler()
	return &tracedStack{srv: srv, cli: cli, vehicle: a, station: b, links: links}, nil
}
