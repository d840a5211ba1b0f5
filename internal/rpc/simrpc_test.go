package rpc

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/kern"
	"repro/internal/xdr"
)

// simCaller is a client process for the tests, a kern.Stepper. It opens
// a SimClient on port 2222, then asks next for each syscall to make:
// one prepared on c (call true), which it drives to its end with Result
// and hands to done, or any other, whose result it drops. A failed open
// ends the process with status 1 and the error in err; next ends it
// with exit.
type simCaller struct {
	next func(s *kern.Sys, c *SimClient) (sc kern.Syscall, call, exit bool)
	done func(res []byte, err error)

	c      *SimClient
	opened bool
	busy   bool // c has an open or a call in progress
	err    error
}

func (t *simCaller) Step(s *kern.Sys, val uint32, errno int) (kern.Syscall, bool, int) {
	if t.c == nil {
		t.c = NewSimClient(s, 2222, SimServerPort)
		t.busy = true
		return t.c.Open(), false, 0
	}
	if t.busy {
		sc, done, res, err := t.c.Result(val, errno)
		if !done {
			return sc, false, 0
		}
		t.busy = false
		switch {
		case t.opened:
			t.done(res, err)
		case err != nil:
			t.err = err
			return kern.Syscall{}, true, 1
		}
		t.opened = true
	}
	sc, call, exit := t.next(s, t.c)
	if exit {
		return kern.Syscall{}, true, 0
	}
	t.busy = call
	return sc, false, 0
}

// incrResult decodes a test-incr call's results, as the value x+1 or
// the call's error.
func incrResult(res []byte, err error) (uint32, error) {
	if err != nil {
		return 0, err
	}
	return xdr.NewDecoder(res).Uint32()
}

// runToExit runs k until p has exited.
func runToExit(t *testing.T, k *kern.Kernel, p *kern.Proc) {
	t.Helper()
	err := k.RunUntil(func() bool {
		return p.State == kern.StateZombie || p.State == kern.StateDead
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
}

// script is a simCaller's next that returns the syscalls of steps in
// turn and then exits. A step makes a call (call true) or any other
// syscall.
func script(steps ...func(s *kern.Sys, c *SimClient) (kern.Syscall, bool)) func(*kern.Sys, *SimClient) (kern.Syscall, bool, bool) {
	return func(s *kern.Sys, c *SimClient) (kern.Syscall, bool, bool) {
		if len(steps) == 0 {
			return kern.Syscall{}, false, true
		}
		sc, call := steps[0](s, c)
		steps = steps[1:]
		return sc, call, false
	}
}

// callIncr is a script step that calls test-incr on x.
func callIncr(x uint32) func(*kern.Sys, *SimClient) (kern.Syscall, bool) {
	return func(_ *kern.Sys, c *SimClient) (kern.Syscall, bool) { return c.PrepareIncr(x), true }
}

func TestSimRPCIncrRoundTrip(t *testing.T) {
	k := kern.New()
	server := StartSimServer(k, SimServerPort)
	var got uint32
	var callErr error
	cl := &simCaller{
		next: script(callIncr(41)),
		done: func(res []byte, err error) { got, callErr = incrResult(res, err) },
	}
	runToExit(t, k, k.SpawnStepper("client", kern.Cred{}, cl))
	if cl.err != nil {
		t.Fatal(cl.err)
	}
	if callErr != nil {
		t.Fatal(callErr)
	}
	if got != 42 {
		t.Fatalf("incr(41) = %d, want 42", got)
	}
	k.Kill(server, kern.SIGKILL)
}

func TestSimRPCManyCallsAndCost(t *testing.T) {
	k := kern.New()
	server := StartSimServer(k, SimServerPort)
	const calls = 50
	var bad int
	var startCycles, endCycles uint64
	var i uint32
	cl := &simCaller{
		next: func(s *kern.Sys, c *SimClient) (kern.Syscall, bool, bool) {
			switch i {
			case 0:
				startCycles = s.Kernel().Clk.Cycles()
			case calls:
				endCycles = s.Kernel().Clk.Cycles()
				return kern.Syscall{}, false, true
			}
			return c.PrepareIncr(i), true, false
		},
		done: func(res []byte, err error) {
			if v, err := incrResult(res, err); err != nil || v != i+1 {
				bad++
			}
			i++
		},
	}
	runToExit(t, k, k.SpawnStepper("client", kern.Cred{}, cl))
	if cl.err != nil {
		t.Fatal(cl.err)
	}
	if bad != 0 {
		t.Fatalf("%d bad calls", bad)
	}
	perCall := clock.Micros((endCycles - startCycles) / calls)
	// Sanity band for the Figure 8 RPC row: the paper measured 63 us;
	// the shape requirement is "tens of microseconds", far above a
	// syscall and far above a SecModule call.
	if perCall < 20 || perCall > 200 {
		t.Fatalf("simulated RPC = %.1f us/call, outside sanity band [20,200]", perCall)
	}
	k.Kill(server, kern.SIGKILL)
}

func TestSimRPCUnknownProc(t *testing.T) {
	k := kern.New()
	server := StartSimServer(k, SimServerPort)
	var callErr error
	cl := &simCaller{
		next: script(func(_ *kern.Sys, c *SimClient) (kern.Syscall, bool) {
			return c.Prepare(TestIncrProg, TestIncrVers, 123, nil), true
		}),
		done: func(_ []byte, err error) { callErr = err },
	}
	runToExit(t, k, k.SpawnStepper("client", kern.Cred{}, cl))
	if cl.err != nil {
		t.Fatal(cl.err)
	}
	if callErr == nil {
		t.Fatal("unknown procedure succeeded")
	}
	k.Kill(server, kern.SIGKILL)
}

// A reply to another XID that reaches the client's socket before the
// server's answer is skipped: the sim-path counterpart of
// TestClientSkipsStaleXIDs.
func TestSimRPCSkipsStaleReply(t *testing.T) {
	k := kern.New()
	server := StartSimServer(k, SimServerPort)
	stale := encodeReply(&ReplyMsg{XID: 1000, Status: ReplyAccepted,
		AcceptStat: AcceptSuccess, Results: encodeUint32(0xBAD)})
	var got uint32
	var callErr error
	cl := &simCaller{
		next: script(
			// The client's socket queues the stale reply for itself.
			func(s *kern.Sys, c *SimClient) (kern.Syscall, bool) {
				return s.SendtoCall(c.fd, c.port, stale), false
			},
			callIncr(4)),
		done: func(res []byte, err error) { got, callErr = incrResult(res, err) },
	}
	runToExit(t, k, k.SpawnStepper("client", kern.Cred{}, cl))
	if cl.err != nil {
		t.Fatal(cl.err)
	}
	if callErr != nil {
		t.Fatal(callErr)
	}
	if got != 5 {
		t.Fatalf("incr(4) = %#x, want 5: the stale reply was not skipped", got)
	}
	k.Kill(server, kern.SIGKILL)
}

// The server drops a datagram it cannot decode and serves the next
// call.
func TestSimServerDropsUndecodable(t *testing.T) {
	k := kern.New()
	server := StartSimServer(k, SimServerPort)
	var got uint32
	var callErr error
	cl := &simCaller{
		next: script(
			func(s *kern.Sys, c *SimClient) (kern.Syscall, bool) {
				return s.SendtoCall(c.fd, SimServerPort, []byte("junk")), false
			},
			callIncr(7)),
		done: func(res []byte, err error) { got, callErr = incrResult(res, err) },
	}
	runToExit(t, k, k.SpawnStepper("client", kern.Cred{}, cl))
	if cl.err != nil {
		t.Fatal(cl.err)
	}
	if callErr != nil || got != 8 {
		t.Fatalf("incr(7) after junk = %d, %v; want 8", got, callErr)
	}
	if server.State == kern.StateZombie || server.State == kern.StateDead {
		t.Fatalf("server exited with status %d", server.ExitStatus)
	}
	k.Kill(server, kern.SIGKILL)
}

// TestSimRPCCallAllocs gates the Figure 8 RPC row at no allocation per
// call: each endpoint receives into one buffer it keeps, and the codec
// and the loopback socket reuse theirs.
func TestSimRPCCallAllocs(t *testing.T) {
	const markNo = 398
	k := kern.New()
	var marks, want uint64
	k.RegisterSyscall(markNo, "test_mark", 0, func(*kern.Kernel, *kern.Proc, []uint32) kern.Sysret {
		marks++
		return kern.Sysret{}
	})
	server := StartSimServer(k, SimServerPort)
	var callErr error
	var i uint32
	marked := false
	cl := &simCaller{
		// A mark, then a call, forever.
		next: func(_ *kern.Sys, c *SimClient) (kern.Syscall, bool, bool) {
			if callErr != nil {
				return kern.Syscall{}, false, true
			}
			if marked = !marked; marked {
				return kern.Syscall{No: markNo}, false, false
			}
			return c.PrepareIncr(i), true, false
		},
		done: func(res []byte, err error) {
			if v, err := incrResult(res, err); err != nil || v != i+1 {
				callErr = fmt.Errorf("incr(%d) = %d, %v", i, v, err)
			}
			i++
		},
	}
	client := k.SpawnStepper("client", kern.Cred{}, cl)
	defer k.Kill(server, kern.SIGKILL)
	defer k.Kill(client, kern.SIGKILL)
	// One run: the client makes one call and traps the next mark.
	call := func() {
		want = marks + 1
		if err := k.RunUntil(func() bool { return marks >= want || callErr != nil || cl.err != nil }, 0); err != nil {
			t.Fatal(err)
		}
		if cl.err != nil {
			t.Fatal(cl.err)
		}
		if callErr != nil {
			t.Fatal(callErr)
		}
	}
	for w := 0; w < 10; w++ {
		call() // warm: sockets, buffers, scratch pages
	}
	if n := testing.AllocsPerRun(200, call); n != 0 {
		t.Fatalf("simulated RPC call: %v allocs, want 0", n)
	}
}
