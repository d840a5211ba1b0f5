// Command rpcbench measures the real (host-network) ONC RPC stack over
// loopback: the same test-incr service as the paper's RPC baseline,
// served over UDP and record-marked TCP on 127.0.0.1 with genuine
// sockets. These are host wall-clock numbers — they characterize the
// RPC implementation itself on modern hardware, complementing the
// simulated-1999-hardware row that cmd/smodbench reports.
//
// Usage:
//
//	rpcbench [-calls 10000] [-trials 10]
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"time"

	"repro/internal/rpc"
	"repro/internal/xdr"
)

func main() {
	var (
		calls  = flag.Int("calls", 10_000, "calls per trial")
		trials = flag.Int("trials", 10, "number of trials")
	)
	flag.Parse()

	srv := rpc.NewServer()
	srv.Register(rpc.TestIncrProg, rpc.TestIncrVers, rpc.ProcIncr, func(args []byte, res *xdr.Encoder) error {
		d := xdr.NewDecoder(args)
		v, err := d.Uint32()
		if err != nil {
			return err
		}
		res.PutUint32(v + 1)
		return nil
	})

	fmt.Printf("host ONC RPC loopback, test-incr, %d calls/trial x %d trials\n\n", *calls, *trials)
	fmt.Printf("%-12s %16s %18s\n", "transport", "microsec/CALL", "stdev(microsec)")

	if mean, stdev, err := benchUDP(srv, *calls, *trials); err != nil {
		fmt.Fprintf(os.Stderr, "rpcbench: udp: %v\n", err)
	} else {
		fmt.Printf("%-12s %16.3f %18.3f\n", "udp", mean, stdev)
	}
	if mean, stdev, err := benchTCP(srv, *calls, *trials); err != nil {
		fmt.Fprintf(os.Stderr, "rpcbench: tcp: %v\n", err)
	} else {
		fmt.Printf("%-12s %16.3f %18.3f\n", "tcp", mean, stdev)
	}
}

func incrArgs(v uint32) []byte {
	e := xdr.NewEncoder()
	e.PutUint32(v)
	return e.Bytes()
}

func runTrials(c *rpc.Client, calls, trials int) (mean, stdev float64, err error) {
	var perCall []float64
	for t := 0; t < trials; t++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			res, err := c.Call(rpc.TestIncrProg, rpc.TestIncrVers, rpc.ProcIncr, incrArgs(uint32(i)))
			if err != nil {
				return 0, 0, err
			}
			d := xdr.NewDecoder(res)
			v, err := d.Uint32()
			if err != nil || v != uint32(i)+1 {
				return 0, 0, fmt.Errorf("incr(%d) = %d, %v", i, v, err)
			}
		}
		us := float64(time.Since(start).Microseconds()) / float64(calls)
		perCall = append(perCall, us)
	}
	for _, v := range perCall {
		mean += v
	}
	mean /= float64(len(perCall))
	var sq float64
	for _, v := range perCall {
		sq += (v - mean) * (v - mean)
	}
	if len(perCall) > 1 {
		stdev = math.Sqrt(sq / float64(len(perCall)-1))
	}
	return mean, stdev, nil
}

func benchUDP(srv *rpc.Server, calls, trials int) (float64, float64, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer pc.Close()
	go rpc.ServeUDP(pc, srv)
	c, err := rpc.DialUDP(pc.LocalAddr().String(), 5*time.Second)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	return runTrials(c, calls, trials)
}

func benchTCP(srv *rpc.Server, calls, trials int) (float64, float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	go rpc.ServeTCP(l, srv)
	c, err := rpc.DialTCP(l.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	return runTrials(c, calls, trials)
}
