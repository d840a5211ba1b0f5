package fleet

import (
	"fmt"
	"runtime"
	"testing"
)

// warmPlan builds a plan of calls of incr spread round-robin over keys
// client keys.
func warmPlan(incr uint32, keys, calls int) []Request {
	plan := make([]Request, calls)
	for i := range plan {
		plan[i] = Request{Key: fmt.Sprintf("k%03d", i%keys), FuncID: incr, Args: []uint32{uint32(i)}}
	}
	return plan
}

// runWarmPlan runs plan and fails on any call that did not compute
// incr.
func runWarmPlan(tb testing.TB, f *Fleet, plan []Request) {
	resps, err := f.RunPlan(plan)
	if err != nil {
		tb.Fatal(err)
	}
	for i, r := range resps {
		if r.Err != nil || r.Errno != 0 || r.Val != plan[i].Args[0]+1 {
			tb.Fatalf("call %d: %+v", i, r)
		}
	}
}

// warmCallFleet opens a 1-shard fleet without a result cache and warms
// a session for each of 16 keys, returning it with a 256-call plan over
// those keys.
func warmCallFleet(tb testing.TB) (*Fleet, []Request) {
	f, err := Open(testOpts(1)...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := f.Close(); err != nil {
			tb.Errorf("Close: %v", err)
		}
	})
	incr, ok := f.FuncID("incr")
	if !ok {
		tb.Fatal("libc module has no incr")
	}
	plan := warmPlan(incr, 16, 256)
	runWarmPlan(tb, f, plan)
	return f, plan
}

// TestWarmSessionsStartNoGoroutines: every warm session runs on its
// shard's goroutine, so a shard with 64 warm keys runs on no more
// goroutines than one with a single warm key.
func TestWarmSessionsStartNoGoroutines(t *testing.T) {
	f := newTestFleet(t, testOpts(1)...)
	incr := incrID(t, f)
	runWarmPlan(t, f, warmPlan(incr, 1, 1))
	one := runtime.NumGoroutine()
	runWarmPlan(t, f, warmPlan(incr, 64, 64))
	many := runtime.NumGoroutine()
	if live := f.Stats().PerShard[0].LiveSessions; live != 64 {
		t.Fatalf("%d live sessions, want 64", live)
	}
	if many > one {
		t.Fatalf("%d goroutines with 64 warm keys, %d with 1: sessions must not add goroutines", many, one)
	}
}

// warmCallAllocsMax is the allocation ratchet on a warm fleet call.
// What remains per call: the pendingCall, and the plan's job
// bookkeeping (request and response slices, routing groups, the done
// channel) spread over its calls.
const warmCallAllocsMax = 1.07

// TestWarmCallAllocs ratchets the allocations of a warm call through
// RunPlan: 1 shard, 16 warm keys, no result cache.
func TestWarmCallAllocs(t *testing.T) {
	f, plan := warmCallFleet(t)
	perPlan := testing.AllocsPerRun(20, func() { runWarmPlan(t, f, plan) })
	if perCall := perPlan / float64(len(plan)); perCall > warmCallAllocsMax {
		t.Fatalf("warm call: %.2f allocs, want <= %.2f", perCall, warmCallAllocsMax)
	}
}

// BenchmarkShardWarmCalls times warm calls through RunPlan on the
// TestWarmCallAllocs fleet, reporting host ns and allocations per call.
func BenchmarkShardWarmCalls(b *testing.B) {
	f, plan := warmCallFleet(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runWarmPlan(b, f, plan)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	calls := float64(b.N * len(plan))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/calls, "ns/call")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/calls, "allocs/call")
}

// fleetCallAllocs bounds a warm FleetCall, the served path: the
// single-call job (newCallJob), its done channel, and the pendingCall
// the shard queues for the key's client (shard.inject).
const fleetCallAllocs = 3

// TestFleetCallAllocs gates the allocations of a warm FleetCall on
// the TestWarmCallAllocs fleet.
func TestFleetCallAllocs(t *testing.T) {
	f, plan := warmCallFleet(t)
	args := []uint32{41}
	call := func() {
		if val, errno, _, err := f.FleetCall(plan[0].Key, plan[0].FuncID, args); err != nil || errno != 0 || val != 42 {
			t.Fatalf("FleetCall = (%d, errno %d, %v), want (42, 0, nil)", val, errno, err)
		}
	}
	call()
	if got := testing.AllocsPerRun(200, call); got > fleetCallAllocs {
		t.Fatalf("warm FleetCall: %.2f allocs, want <= %d", got, fleetCallAllocs)
	}
}
