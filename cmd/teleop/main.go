// Command teleop is the operator station of a real-time remote-driving
// demo: it joins a session on a teleoperation hub over a REAL TCP
// connection and steers it with the driver model. The hub hosts the
// world and streams (optionally delta-coded) world views down the
// connection; -delay and -drop become the session's netem rule on both
// directions of its emulated link.
//
// Without -connect, teleop hosts that hub itself on -addr, so the
// vehicle subsystem and the operator station run in one process over
// real localhost TCP — the topology of the paper's setup (CARLA server
// and client on one host, NETEM faults on the path between them).
// -telemetry-addr then serves the local hub's metrics.
//
// Usage:
//
//	teleop [-duration 30s] [-subject T5] [-delay 50ms] [-drop 0.05] [-addr 127.0.0.1:0]
//	       [-scenario follow-vehicle] [-session lab-7] [-seed 42] [-delta]
//	       [-telemetry-addr localhost:9090]
//
// With -connect the station dials a running teleopd hub instead:
//
//	teleop -connect 127.0.0.1:7340 [-scenario follow-vehicle] [-session lab-7]
//	       [-seed 42] [-delta] [-duration 30s] [-subject T5] [-delay 50ms] [-drop 0.05]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"teledrive/internal/driver"
	"teledrive/internal/hub"
	"teledrive/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "teleop:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("teleop", flag.ContinueOnError)
	var (
		duration  = fs.Duration("duration", 30*time.Second, "how long to drive")
		subject   = fs.String("subject", "T5", "driver profile at the station")
		delay     = fs.Duration("delay", 0, "one-way netem delay on the session link")
		drop      = fs.Float64("drop", 0, "netem loss probability on the session link [0,1)")
		addr      = fs.String("addr", "127.0.0.1:0", "TCP listen address of the local hub")
		telemAddr = fs.String("telemetry-addr", "", "serve the local hub's /metrics, /healthz and /debug/pprof on this address (e.g. localhost:9090); empty = off")
		connect   = fs.String("connect", "", "dial a teleopd hub at this address instead of hosting a local one")
		scnName   = fs.String("scenario", "follow-vehicle", "hub scenario to join")
		sessName  = fs.String("session", "", "session label in hub telemetry (empty = scenario name)")
		seed      = fs.Int64("seed", 42, "session network seed")
		delta     = fs.Bool("delta", false, "request keyframe+diff world-view streaming")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prof, ok := driver.SubjectByName(*subject)
	if !ok {
		return fmt.Errorf("unknown subject %q", *subject)
	}

	hubAddr := *connect
	if hubAddr == "" {
		cfg := hub.Config{}
		if *telemAddr != "" {
			reg := telemetry.NewRegistry()
			ops, err := telemetry.Serve(*telemAddr, reg)
			if err != nil {
				return err
			}
			defer ops.Close()
			fmt.Fprintf(os.Stderr, "telemetry: serving /metrics on http://%s/metrics\n", ops.Addr())
			cfg.Metrics = reg
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		h := hub.New(cfg)
		served := make(chan error, 1)
		go func() { served <- h.Serve(ln) }()
		defer func() {
			h.Close()
			_ = ln.Close()
			<-served
		}()
		hubAddr = ln.Addr().String()
		fmt.Printf("local hub listening on %s (delay=%v drop=%.0f%%)\n", hubAddr, *delay, *drop*100)
	}
	return connectHub(hubSessionParams{
		addr: hubAddr, scenario: *scnName, session: *sessName,
		seed: *seed, delta: *delta, duration: *duration,
		delay: *delay, drop: *drop, profile: prof,
	})
}
