// Command smodfleetctl is the client-side counterpart of smodfleetd: a
// small CLI that talks to a running daemon over its real sockets.
//
//	smodfleetctl call -tcp 127.0.0.1:4045 -key c0001 -fn incr -arg 41
//	smodfleetctl burst -tcp 127.0.0.1:4045 -clients 8 -calls 100
//	smodfleetctl status -http 127.0.0.1:9090        # GET /reconcile
//	smodfleetctl spec -http 127.0.0.1:9090          # GET /spec
//
// call issues one RPC under a sticky session key; burst drives the
// wall-clock closed-loop client driver (internal/measure) and prints
// aggregate throughput and latency percentiles; status and spec fetch
// the daemon's reconcile state and canonical target spec.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"repro/internal/measure"
	"repro/internal/rpc"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: smodfleetctl {call|burst|status|spec} [flags]")
	os.Exit(2)
}

func dialFlag(fs *flag.FlagSet) *string {
	return fs.String("tcp", "127.0.0.1:4045", "daemon RPC TCP address")
}

func fetch(addr, path string) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "call":
		fs := flag.NewFlagSet("call", flag.ExitOnError)
		tcp := dialFlag(fs)
		key := fs.String("key", "c0001", "sticky session key")
		fn := fs.String("fn", "incr", "module function name")
		arg := fs.Uint("arg", 41, "call argument")
		release := fs.Bool("release", false, "release the key's sessions afterwards")
		fs.Parse(os.Args[2:])
		err = runCall(*tcp, *key, *fn, uint32(*arg), *release)
	case "burst":
		fs := flag.NewFlagSet("burst", flag.ExitOnError)
		tcp := dialFlag(fs)
		clients := fs.Int("clients", 8, "concurrent clients")
		calls := fs.Int("calls", 100, "calls per client")
		fs.Parse(os.Args[2:])
		var st measure.WallClockStats
		st, err = measure.RunWallClockBurst(func() (*rpc.Client, error) {
			return rpc.DialTCP(*tcp)
		}, *clients, *calls)
		fmt.Println(st)
	case "status":
		fs := flag.NewFlagSet("status", flag.ExitOnError)
		addr := fs.String("http", "127.0.0.1:9090", "daemon HTTP address")
		fs.Parse(os.Args[2:])
		err = fetch(*addr, "/reconcile")
	case "spec":
		fs := flag.NewFlagSet("spec", flag.ExitOnError)
		addr := fs.String("http", "127.0.0.1:9090", "daemon HTTP address")
		fs.Parse(os.Args[2:])
		err = fetch(*addr, "/spec")
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smodfleetctl:", err)
		os.Exit(1)
	}
}

func runCall(tcp, key, fn string, arg uint32, release bool) error {
	cl, err := rpc.DialTCP(tcp)
	if err != nil {
		return err
	}
	defer cl.Close()
	fc := &rpc.FleetClient{C: cl}
	id, err := fc.FuncID(fn)
	if err != nil {
		return err
	}
	val, errno, shard, err := fc.Call(key, id, arg)
	if err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("%s(%d) = errno %d (shard %d)", fn, arg, errno, shard)
	}
	fmt.Printf("%s(%d) = %d (shard %d)\n", fn, arg, val, shard)
	if release {
		return fc.Release(key)
	}
	return nil
}
