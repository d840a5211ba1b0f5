// Command smodfleetd is the fleet as a long-running network service:
// it loads a declarative fleet spec (internal/spec), opens the sharded
// simulated-kernel fleet it describes, serves real client sessions
// over ONC-RPC on TCP sockets (internal/rpc's fleet program),
// and keeps the live fleet converged onto the spec with a reconcile
// loop (internal/reconcile) ticking one rebalance barrier per
// -barrier interval.
//
// The two clocks never mix: client calls run in wall-clock open-loop
// mode (live single-call jobs between barriers), while everything the
// simulated clock owns — per-shard cycle counts, migration decisions,
// autoscaler windows — stays on the deterministic barrier path, so
// the same call sequence still produces bit-for-bit identical
// simulated-time metrics.
//
// Editing the spec file reconfigures the fleet live: the daemon
// re-reads it on SIGHUP and every -poll interval, and the reconcile
// loop walks the running fleet to the new desired state at barrier
// granularity — growing, draining (graceful, session-evacuating),
// re-mixing backend profiles, swapping the placement strategy, or
// re-banding the autoscaler — without dropping in-flight calls. Fields
// that cannot change live (per-shard caches and session caps) are
// reported as restart-required drift in /reconcile instead of being
// acted on.
//
// On -http the daemon serves the fleet metrics mux (/metrics
// Prometheus scrapes, /debug/pprof) plus /spec (the canonical current
// target spec), /reconcile (live reconcile status as JSON), and
// /healthz. SIGINT/SIGTERM shut down gracefully: stop admitting, let
// in-flight calls finish, retire the listeners and the connections
// they accepted, close the fleet.
//
// Usage:
//
//	smodfleetd -spec fleet.json
//	smodfleetd -spec fleet.json -tcp :4045 -http :9090
//	smodfleetd -spec fleet.json -barrier 100ms -poll 1s -addrfile /tmp/smod.addrs
//	kill -HUP $(pidof smodfleetd)   # apply a spec edit now
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var (
		specPath = flag.String("spec", "", "fleet spec file (required; see internal/spec)")
		tcpAddr  = flag.String("tcp", "127.0.0.1:4045", "RPC TCP listen address (empty = disabled)")
		httpAddr = flag.String("http", "", "metrics/spec/reconcile HTTP listen address (empty = disabled)")
		barrier  = flag.Duration("barrier", 250*time.Millisecond, "reconcile step (rebalance barrier) interval")
		poll     = flag.Duration("poll", 2*time.Second, "spec file poll interval (0 = SIGHUP only)")
		addrFile = flag.String("addrfile", "", "write bound listener addresses to this file")
		drainTO  = flag.Duration("draintimeout", 10*time.Second, "graceful drain bound on shutdown")
	)
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "smodfleetd: -spec is required")
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "smodfleetd: ", log.LstdFlags|log.Lmicroseconds)
	d, err := New(Config{
		SpecPath:     *specPath,
		TCPAddr:      *tcpAddr,
		HTTPAddr:     *httpAddr,
		Barrier:      *barrier,
		Poll:         *poll,
		AddrFile:     *addrFile,
		DrainTimeout: *drainTO,
		Logf:         logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)

	if err := d.Run(ctx, hup); err != nil {
		logger.Fatal(err)
	}
}
