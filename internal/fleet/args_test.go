package fleet

import (
	"errors"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/rpc"
)

// A call's argument words are laid out on its native client's stack,
// which holds core.MaxNativeArgs of them. A longer call is refused at
// the front door, before any shard sees it; one of 70,000 words once
// ran off the client's scratch segment and panicked its shard's
// goroutine, ending the process.

// bigArgs returns n argument words, the first 9.
func bigArgs(n int) []uint32 {
	args := make([]uint32, n)
	args[0] = 9
	return args
}

// TestCallArgumentBound: in process, a call of core.MaxNativeArgs words
// is answered, and a longer one is refused with core.ErrTooManyArgs by
// Call and RunPlan, and with errno E2BIG by FleetCall, without reaching
// a shard.
func TestCallArgumentBound(t *testing.T) {
	f := newTestFleet(t, testOpts(1)...)
	incr := incrID(t, f)
	if val, errno, shard, err := f.FleetCall("k", incr, bigArgs(core.MaxNativeArgs)); err != nil || errno != 0 || shard != 0 || val != 10 {
		t.Fatalf("FleetCall of %d words = (%d, %d, %d, %v), want (10, 0, 0, nil)", core.MaxNativeArgs, val, errno, shard, err)
	}
	for _, n := range []int{core.MaxNativeArgs + 1, 70_000} {
		if val, errno, shard, err := f.FleetCall("k", incr, bigArgs(n)); err != nil || errno != rpc.ErrnoTooManyArgs || shard != -1 || val != 0 {
			t.Fatalf("FleetCall of %d words = (%d, %d, %d, %v), want (0, E2BIG, -1, nil)", n, val, errno, shard, err)
		}
	}
	if _, err := f.Call("k", incr, bigArgs(core.MaxNativeArgs+1)...); !errors.Is(err, core.ErrTooManyArgs) {
		t.Fatalf("Call of %d words: %v, want ErrTooManyArgs", core.MaxNativeArgs+1, err)
	}
	plan := []Request{{Key: "k", FuncID: incr, Args: []uint32{1}}, {Key: "j", FuncID: incr, Args: bigArgs(core.MaxNativeArgs + 1)}}
	if _, err := f.RunPlan(plan); !errors.Is(err, core.ErrTooManyArgs) {
		t.Fatalf("RunPlan with a call of %d words: %v, want ErrTooManyArgs", core.MaxNativeArgs+1, err)
	}
	if st := f.Stats(); st.TotalCalls != 1 {
		t.Fatalf("%d calls reached a shard, want only the first", st.TotalCalls)
	}
	if v, err := f.Call("k", incr, 41); err != nil || v != 42 {
		t.Fatalf("next call = (%d, %v), want 42", v, err)
	}
}

// TestServedArgumentBound drives the bound through rpc.ServeTCP on
// loopback with the real FleetClient: the refusals are normal E2BIG
// replies, and the connection serves the next call.
func TestServedArgumentBound(t *testing.T) {
	f := newTestFleet(t, testOpts(1)...)
	incr := incrID(t, f)
	srv := rpc.NewServer()
	rpc.RegisterFleetService(srv, f)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		rpc.ServeTCP(l, srv)
	}()
	defer func() {
		l.Close()
		<-served
	}()
	cl, err := rpc.DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fc := &rpc.FleetClient{C: cl}
	for _, tc := range []struct {
		n            int
		val          uint32
		errno, shard int32
	}{
		{core.MaxNativeArgs, 10, 0, 0},
		{core.MaxNativeArgs + 1, 0, rpc.ErrnoTooManyArgs, -1},
		{70_000, 0, rpc.ErrnoTooManyArgs, -1},
	} {
		val, errno, shard, err := fc.Call("k", incr, bigArgs(tc.n)...)
		if err != nil || val != tc.val || errno != tc.errno || shard != tc.shard {
			t.Fatalf("served call of %d words = (%d, %d, %d, %v), want (%d, %d, %d, nil)",
				tc.n, val, errno, shard, err, tc.val, tc.errno, tc.shard)
		}
	}
	if val, errno, _, err := fc.Call("k", incr, 41); err != nil || errno != 0 || val != 42 {
		t.Fatalf("next call on the connection = (%d, %d, %v), want (42, 0, nil)", val, errno, err)
	}
}
