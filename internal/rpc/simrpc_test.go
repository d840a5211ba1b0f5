package rpc

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/kern"
)

func TestSimRPCIncrRoundTrip(t *testing.T) {
	k := kern.New()
	server := StartSimServer(k, SimServerPort)
	var got uint32
	var callErr error
	client := k.SpawnNative("client", kern.Cred{}, func(s *kern.Sys) int {
		c, err := NewSimClient(s, 2222, SimServerPort)
		if err != nil {
			callErr = err
			return 1
		}
		got, callErr = c.Incr(41)
		return 0
	})
	err := k.RunUntil(func() bool {
		return client.State == kern.StateZombie || client.State == kern.StateDead
	}, 0)
	if err != nil {
		t.Fatal(err)
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
	client := k.SpawnNative("client", kern.Cred{}, func(s *kern.Sys) int {
		c, err := NewSimClient(s, 2222, SimServerPort)
		if err != nil {
			return 1
		}
		startCycles = s.Kernel().Clk.Cycles()
		for i := uint32(0); i < calls; i++ {
			v, err := c.Incr(i)
			if err != nil || v != i+1 {
				bad++
			}
		}
		endCycles = s.Kernel().Clk.Cycles()
		return 0
	})
	err := k.RunUntil(func() bool {
		return client.State == kern.StateZombie || client.State == kern.StateDead
	}, 0)
	if err != nil {
		t.Fatal(err)
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
	client := k.SpawnNative("client", kern.Cred{}, func(s *kern.Sys) int {
		c, err := NewSimClient(s, 2222, SimServerPort)
		if err != nil {
			return 1
		}
		_, callErr = c.Call(TestIncrProg, TestIncrVers, 123, nil)
		return 0
	})
	err := k.RunUntil(func() bool {
		return client.State == kern.StateZombie || client.State == kern.StateDead
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if callErr == nil {
		t.Fatal("unknown procedure succeeded")
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
	k.RegisterSyscall(markNo, "test_mark", func(*kern.Kernel, *kern.Proc, []uint32) kern.Sysret {
		marks++
		return kern.Sysret{}
	})
	server := StartSimServer(k, SimServerPort)
	var callErr error
	client := k.SpawnNative("client", kern.Cred{}, func(s *kern.Sys) int {
		c, err := NewSimClient(s, 2222, SimServerPort)
		if err != nil {
			callErr = err
			return 1
		}
		for i := uint32(0); ; i++ {
			s.Call(markNo)
			if v, err := c.Incr(i); err != nil || v != i+1 {
				callErr = fmt.Errorf("incr(%d) = %d, %v", i, v, err)
				return 1
			}
		}
	})
	defer k.Kill(server, kern.SIGKILL)
	defer k.Kill(client, kern.SIGKILL)
	// One run: the client makes one call and traps the next mark.
	call := func() {
		want = marks + 1
		if err := k.RunUntil(func() bool { return marks >= want || callErr != nil }, 0); err != nil {
			t.Fatal(err)
		}
		if callErr != nil {
			t.Fatal(callErr)
		}
	}
	for i := 0; i < 10; i++ {
		call() // warm: sockets, buffers, scratch pages
	}
	if n := testing.AllocsPerRun(200, call); n != 0 {
		t.Fatalf("simulated RPC call: %v allocs, want 0", n)
	}
}
