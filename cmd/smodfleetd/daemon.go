package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/metrics"
	"repro/internal/reconcile"
	"repro/internal/rpc"
	"repro/internal/spec"
)

// Config wires one daemon instance. Empty listener addresses disable
// that listener; ":0" binds an ephemeral port (the bound address lands
// in AddrFile and the accessors, for scripts and tests).
type Config struct {
	// SpecPath is the fleet spec document the daemon loads, serves, and
	// watches for live edits.
	SpecPath string
	// TCPAddr, UDPAddr and HTTPAddr are the listen addresses for the
	// RPC transports and the observability endpoint.
	TCPAddr  string
	UDPAddr  string
	HTTPAddr string
	// Barrier is the reconcile cadence: one reconcile step (and with it
	// one rebalance barrier) per interval.
	Barrier time.Duration
	// Poll is the spec-file watch interval (0 disables polling; SIGHUP
	// still reloads).
	Poll time.Duration
	// AddrFile, when set, receives "proto=addr" lines for every bound
	// listener once the daemon is serving.
	AddrFile string
	// DrainTimeout bounds the graceful drain on shutdown (0 = 10s).
	DrainTimeout time.Duration
	// Logf receives daemon log lines (nil = drop).
	Logf func(format string, args ...any)
}

// gate is the wall-clock admission valve in front of the fleet: every
// served call holds a read lock for its full duration, so flipping
// accepting under the write lock both refuses new calls and waits out
// every call already in flight — the graceful drain is one Lock().
type gate struct {
	mu        sync.RWMutex
	accepting bool
	f         *fleet.Fleet
}

var errDraining = errors.New("smodfleetd: draining, not accepting calls")

func (g *gate) FleetCall(key string, funcID uint32, args []uint32) (uint32, int32, int32, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if !g.accepting {
		return 0, 0, -1, errDraining
	}
	return g.f.FleetCall(key, funcID, args)
}

func (g *gate) FleetRelease(key string) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if !g.accepting {
		return errDraining
	}
	return g.f.FleetRelease(key)
}

func (g *gate) FleetFuncID(name string) (uint32, bool) {
	return g.f.FleetFuncID(name)
}

// drain refuses new calls and returns once every in-flight call has
// completed (or the timeout passed).
func (g *gate) drain(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		g.mu.Lock()
		g.accepting = false
		g.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Daemon is one running smodfleetd: a fleet built from a spec, served
// over real sockets, converged by a reconcile loop, reconfigured by
// spec-file edits.
type Daemon struct {
	cfg  Config
	f    *fleet.Fleet
	loop *reconcile.Loop
	gate *gate
	reg  *metrics.Registry

	tcpLn   net.Listener
	udpConn net.PacketConn
	httpLn  net.Listener
	httpSrv *http.Server

	mu      sync.Mutex
	lastRaw []byte // spec file bytes behind the current target
}

// openFleet opens the fleet a validated spec describes — the same
// fleet a load-curve point measures — publishing into reg.
func openFleet(fs *spec.FleetSpec, reg *metrics.Registry) (*fleet.Fleet, error) {
	opts, _, err := measure.FleetOptions(fs)
	if err != nil {
		return nil, err
	}
	return fleet.Open(append(opts, fleet.WithMetrics(reg))...)
}

// New loads the spec, opens the fleet, binds every configured
// listener, and writes the address file. The daemon is not serving
// until Run.
func New(cfg Config) (*Daemon, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Barrier <= 0 {
		cfg.Barrier = 250 * time.Millisecond
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	raw, err := os.ReadFile(cfg.SpecPath)
	if err != nil {
		return nil, fmt.Errorf("smodfleetd: read spec: %w", err)
	}
	fs, err := spec.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("smodfleetd: %s: %w", cfg.SpecPath, err)
	}

	reg := metrics.NewRegistry()
	f, err := openFleet(fs, reg)
	if err != nil {
		return nil, fmt.Errorf("smodfleetd: open fleet: %w", err)
	}
	d := &Daemon{
		cfg:     cfg,
		f:       f,
		loop:    reconcile.New(f, fs),
		gate:    &gate{accepting: true, f: f},
		reg:     reg,
		lastRaw: raw,
	}

	closeAll := func() {
		if d.tcpLn != nil {
			d.tcpLn.Close()
		}
		if d.udpConn != nil {
			d.udpConn.Close()
		}
		if d.httpLn != nil {
			d.httpLn.Close()
		}
		f.Close()
	}
	if cfg.TCPAddr != "" {
		if d.tcpLn, err = net.Listen("tcp", cfg.TCPAddr); err != nil {
			closeAll()
			return nil, fmt.Errorf("smodfleetd: tcp listen: %w", err)
		}
	}
	if cfg.UDPAddr != "" {
		if d.udpConn, err = net.ListenPacket("udp", cfg.UDPAddr); err != nil {
			closeAll()
			return nil, fmt.Errorf("smodfleetd: udp listen: %w", err)
		}
	}
	if cfg.HTTPAddr != "" {
		if d.httpLn, err = net.Listen("tcp", cfg.HTTPAddr); err != nil {
			closeAll()
			return nil, fmt.Errorf("smodfleetd: http listen: %w", err)
		}
		d.httpSrv = &http.Server{Handler: d.httpMux()}
	}
	if cfg.AddrFile != "" {
		if err := d.writeAddrFile(); err != nil {
			closeAll()
			return nil, err
		}
	}
	return d, nil
}

// TCPAddr, UDPAddr and HTTPAddr return the bound listener addresses
// ("" when that listener is disabled).
func (d *Daemon) TCPAddr() string {
	if d.tcpLn == nil {
		return ""
	}
	return d.tcpLn.Addr().String()
}

func (d *Daemon) UDPAddr() string {
	if d.udpConn == nil {
		return ""
	}
	return d.udpConn.LocalAddr().String()
}

func (d *Daemon) HTTPAddr() string {
	if d.httpLn == nil {
		return ""
	}
	return d.httpLn.Addr().String()
}

func (d *Daemon) writeAddrFile() error {
	var b strings.Builder
	if a := d.TCPAddr(); a != "" {
		fmt.Fprintf(&b, "tcp=%s\n", a)
	}
	if a := d.UDPAddr(); a != "" {
		fmt.Fprintf(&b, "udp=%s\n", a)
	}
	if a := d.HTTPAddr(); a != "" {
		fmt.Fprintf(&b, "http=%s\n", a)
	}
	if err := os.WriteFile(d.cfg.AddrFile, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("smodfleetd: addr file: %w", err)
	}
	return nil
}

// httpMux is the observability surface: the fleet metrics mux
// (/metrics, /debug/...) plus /spec (the canonical target spec),
// /reconcile (live reconcile status), and /healthz.
func (d *Daemon) httpMux() http.Handler {
	mux := metrics.NewMux(d.reg)
	mux.HandleFunc("/spec", func(w http.ResponseWriter, _ *http.Request) {
		b, err := d.loop.Target().Marshal()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("/reconcile", func(w http.ResponseWriter, _ *http.Request) {
		b, err := json.MarshalIndent(d.loop.Status(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(b, '\n'))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Reload re-reads the spec file and, when it changed, makes it the
// reconcile target. A broken spec is logged and ignored — the daemon
// keeps converging toward the last good spec.
func (d *Daemon) Reload() error {
	raw, err := os.ReadFile(d.cfg.SpecPath)
	if err != nil {
		d.cfg.Logf("reload: %v", err)
		return err
	}
	d.mu.Lock()
	unchanged := string(raw) == string(d.lastRaw)
	d.mu.Unlock()
	if unchanged {
		return nil
	}
	fs, err := spec.Parse(raw)
	if err != nil {
		d.cfg.Logf("reload: rejecting spec edit: %v", err)
		return err
	}
	d.mu.Lock()
	d.lastRaw = raw
	d.mu.Unlock()
	if err := d.loop.SetSpec(fs); err != nil {
		return err
	}
	d.cfg.Logf("reload: new target spec (%s sizing, placement %s)",
		sizingLabel(fs), fs.Placement)
	return nil
}

func sizingLabel(fs *spec.FleetSpec) string {
	switch {
	case fs.Autoscale != nil:
		return fmt.Sprintf("autoscale %d..%d", fs.Autoscale.Min, fs.Autoscale.Max)
	case fs.Mix != "":
		return fs.Mix
	default:
		return fmt.Sprintf("%d shards", fs.Shards)
	}
}

// Loop exposes the reconcile loop (tests and the HTTP handlers read
// it; only the daemon writes).
func (d *Daemon) Loop() *reconcile.Loop { return d.loop }

// Run serves until ctx is done, then shuts down gracefully: stop
// accepting, drain in-flight calls, close listeners and every served
// connection, then the fleet. The hup channel delivers spec-reload
// requests (SIGHUP in main; tests may send on it directly).
func (d *Daemon) Run(ctx context.Context, hup <-chan os.Signal) error {
	srv := rpc.NewServer()
	rpc.RegisterFleetService(srv, d.gate)

	// served counts the RPC transports still serving: each returns
	// once its listener is closed and none of its connections or
	// workers is left.
	var served sync.WaitGroup
	if d.tcpLn != nil {
		served.Add(1)
		go func() {
			defer served.Done()
			rpc.ServeTCP(d.tcpLn, srv)
		}()
		d.cfg.Logf("serving rpc/tcp on %s", d.TCPAddr())
	}
	if d.udpConn != nil {
		served.Add(1)
		go func() {
			defer served.Done()
			rpc.ServeUDP(d.udpConn, srv)
		}()
		d.cfg.Logf("serving rpc/udp on %s", d.UDPAddr())
	}
	if d.httpSrv != nil {
		go d.httpSrv.Serve(d.httpLn)
		d.cfg.Logf("serving http on %s", d.HTTPAddr())
	}

	// The reconcile loop owns the fleet's barrier cadence.
	loopCtx, stopLoop := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		d.loop.Run(loopCtx, d.cfg.Barrier, func(err error) {
			d.cfg.Logf("reconcile: %v", err)
		})
	}()

	var poll <-chan time.Time
	if d.cfg.Poll > 0 {
		t := time.NewTicker(d.cfg.Poll)
		defer t.Stop()
		poll = t.C
	}
	d.cfg.Logf("converging toward %s", d.cfg.SpecPath)

	for {
		select {
		case <-hup:
			d.Reload()
		case <-poll:
			d.Reload()
		case <-ctx.Done():
			d.cfg.Logf("shutdown: draining")
			if !d.gate.drain(d.cfg.DrainTimeout) {
				d.cfg.Logf("shutdown: drain timed out after %s", d.cfg.DrainTimeout)
			}
			if d.tcpLn != nil {
				d.tcpLn.Close()
			}
			if d.udpConn != nil {
				d.udpConn.Close()
			}
			// No served connection outlives Run: the transports close
			// theirs and return before the fleet closes.
			served.Wait()
			stopLoop()
			<-loopDone
			if d.httpSrv != nil {
				sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				d.httpSrv.Shutdown(sctx)
				cancel()
			}
			err := d.f.Close()
			if err != nil {
				d.cfg.Logf("shutdown: fleet close: %v", err)
			} else {
				d.cfg.Logf("shutdown: clean")
			}
			return err
		}
	}
}
