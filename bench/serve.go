package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/rpc"
)

// serveTCP puts the fleet-skew fleet behind the fleet RPC service on
// real loopback TCP and drives it in a closed loop from two
// connections, one per host CPU. It is the only workload with real
// sockets. It is closed loop because sleeping to pace an open loop
// fires a fraction of a millisecond late on small hosts, so an open-loop
// generator with sub-millisecond gaps would measure its own timer.
var serveTCP = workload{
	name: "serve-tcp",
	why:  "the same fleet behind rpc.ServeTCP on loopback, closed loop from 2 connections: real sockets, xdr and the served path",
	run:  runServeTCP,
}

const serveConns = 2

// The incr argument names its request: the connection in the top 8
// bits, a per-connection sequence number from 1 in the low 24, so the
// server side can match each call to its client without any extra
// field on the wire.
func serveArg(conn, seq int) uint32 { return uint32(conn)<<24 | uint32(seq) }

func reqID(arg uint32) uint64 { return uint64(arg>>24)<<32 | uint64(arg) }

// timedBackend is the rpc.FleetBackend the service runs on: the fleet
// itself, with each FleetCall timed on the server side.
type timedBackend struct {
	*fleet.Fleet
	tr      *tracer
	perConn int
	// fleetNS[conn*perConn+seq-1] is the fleet time of that request.
	fleetNS []atomic.Int64
}

func (b *timedBackend) FleetCall(key string, funcID uint32, args []uint32) (uint32, int32, int32, error) {
	t0 := time.Now()
	val, errno, shard, err := b.Fleet.FleetCall(key, funcID, args)
	t1 := time.Now()
	if len(args) == 1 {
		conn, seq := int(args[0]>>24), int(args[0]&0xffffff)
		if conn < serveConns && seq >= 1 && seq <= b.perConn {
			b.fleetNS[conn*b.perConn+seq-1].Store(int64(t1.Sub(t0)))
			b.tr.add("fleet.FleetCall", 0, laneServer+conn, t0, t1, reqID(args[0]))
		}
	}
	return val, errno, shard, err
}

// server is one repetition's fleet, service, listener and clients.
type server struct {
	f       *fleet.Fleet
	b       *timedBackend
	l       net.Listener
	served  chan struct{}
	clients []*rpc.FleetClient
	incr    uint32
}

func (e *env) startServer(perConn int) (*server, time.Duration, error) {
	f, incr, open, err := e.openFleet(skewFleetOptions(e.seed))
	if err != nil {
		return nil, 0, err
	}
	s := &server{f: f, incr: incr, served: make(chan struct{})}
	if err := e.warm(f, incr, skewKeys); err != nil {
		f.Close()
		return nil, 0, err
	}
	s.b = &timedBackend{Fleet: f, tr: e.tr, perConn: perConn, fleetNS: make([]atomic.Int64, serveConns*perConn)}
	srv := rpc.NewServer()
	rpc.RegisterFleetService(srv, s.b)
	if s.l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		f.Close()
		return nil, 0, err
	}
	go func() {
		defer close(s.served)
		rpc.ServeTCP(s.l, srv)
	}()
	for c := 0; c < serveConns; c++ {
		cl, err := rpc.DialTCP(s.l.Addr().String())
		if err != nil {
			s.stop()
			return nil, 0, err
		}
		s.clients = append(s.clients, &rpc.FleetClient{C: cl})
	}
	return s, open, nil
}

// stop closes the clients, which ends their connections' server
// goroutines, then the listener, waiting for ServeTCP to return, then
// the fleet.
func (s *server) stop() error {
	for _, c := range s.clients {
		c.C.Close()
	}
	s.l.Close()
	<-s.served
	return s.f.Close()
}

func runServeTCP(e *env) error {
	perConn := 30_000
	if e.size == quick {
		perConn = 300
	}
	var (
		s    *server
		open time.Duration
	)
	err := e.setup(func() error {
		var err error
		s, open, err = e.startServer(perConn)
		return err
	})
	if err != nil {
		return err
	}
	keys := make([][]string, serveConns)
	for c := range keys {
		rng := rand.New(rand.NewSource(e.seed + int64(c+1)*7919))
		zipf := rand.NewZipf(rng, skewZipf, 1, skewKeys-1)
		keys[c] = make([]string, perConn)
		for i := range keys[c] {
			keys[c][i] = keyName(int(zipf.Uint64()))
		}
	}
	before := e.stats(s.f)
	rtt := make([][]time.Duration, serveConns)
	failed := make([]int, serveConns)
	_, err = e.calls(func() error {
		var wg sync.WaitGroup
		for c := 0; c < serveConns; c++ {
			rtt[c] = make([]time.Duration, perConn)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				fc := s.clients[c]
				for seq := 1; seq <= perConn; seq++ {
					arg := serveArg(c, seq)
					t0 := time.Now()
					val, errno, _, err := fc.Call(keys[c][seq-1], s.incr, arg)
					t1 := time.Now()
					rtt[c][seq-1] = t1.Sub(t0)
					e.tr.add("rpc.FleetClient.Call", e.span, laneClient+c, t0, t1, reqID(arg))
					if err != nil || errno != 0 || val != arg+1 {
						failed[c]++
					}
				}
			}(c)
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		s.stop()
		return err
	}
	after := e.stats(s.f)
	if err := s.stop(); err != nil {
		return fmt.Errorf("fleet close: %w", err)
	}
	var all, inFleet, overhead []time.Duration
	for c := range rtt {
		e.rep.tally(perConn-failed[c], true)
		e.rep.tally(failed[c], false)
		for i, d := range rtt[c] {
			fd := time.Duration(s.b.fleetNS[c*perConn+i].Load())
			all = append(all, d)
			inFleet = append(inFleet, fd)
			overhead = append(overhead, d-fd)
		}
	}
	// Batching of concurrent calls follows host scheduling, so the
	// simulated counters are host-dependent here: medians, not checks.
	var tally fleetTally
	tally.add(after.Delta(before))
	tally.report(e.rep.layer)
	e.rep.hostTime["fleet.open_host_ms"] = millis(open)
	e.rep.hostTime["serve_p50_us"] = micros(percentile(all, 0.50))
	e.rep.hostTime["serve_p99_us"] = micros(percentile(all, 0.99))
	e.rep.hostTime["fleet.serve_call_p50_us"] = micros(percentile(inFleet, 0.50))
	e.rep.hostTime["fleet.serve_call_p99_us"] = micros(percentile(inFleet, 0.99))
	e.rep.hostTime["rpc.overhead_p50_us"] = micros(percentile(overhead, 0.50))
	return nil
}
