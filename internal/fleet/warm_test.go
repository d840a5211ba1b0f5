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

// churnFleet opens a 1-shard fleet capped at one warm session and
// returns a function that runs a one-call plan of the next of keys
// fresh keys: each evicts the last key's session and opens its own.
func churnFleet(tb testing.TB, keys int) func() {
	f, err := Open(append(testOpts(1), WithSessionCap(1))...)
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
	plans := make([][]Request, keys)
	for i := range plans {
		plans[i] = []Request{{Key: fmt.Sprintf("churn%06d", i), FuncID: incr, Args: []uint32{uint32(i)}}}
	}
	next := 0
	return func() {
		runWarmPlan(tb, f, plans[next%keys])
		next++
	}
}

// sessionChurnAllocs bounds a one-call plan that opens a session and
// tears another down. What remains, by call site:
//   - RunPlan's job for the plan: the job, its request and response
//     slices and its done channel (4);
//   - submitGrouped: the per-shard groups, the job and index lists and
//     the response slice (4, and a tiny index slice);
//   - placement's binding of the new key (1);
//   - shard.ensureClient: the clientProc and its process name (2);
//   - shard.inject: the pendingCall (1);
//   - kern.CopyInStr: smod_find's module name (1);
//   - core.openSession: the Session, the handle's name, its Proc and
//     its forked Space (4);
//   - kern.SpawnStepper: the client's Space (1).
//
// Entries, anons, amaps, message queues, the client's Proc and Sys,
// and the policy query's memory are recycled.
const sessionChurnAllocs = 20

// TestSessionChurnAllocs ratchets the allocations of a call that opens
// a session and evicts another.
func TestSessionChurnAllocs(t *testing.T) {
	churn := churnFleet(t, 1000)
	for i := 0; i < 10; i++ {
		churn() // warm: frames, spare objects, queues, tables
	}
	if got := testing.AllocsPerRun(200, churn); got > sessionChurnAllocs {
		t.Fatalf("session churn: %.2f allocs per call, want <= %d", got, sessionChurnAllocs)
	}
}

// BenchmarkSessionChurn times calls that each open a session and evict
// another, on the TestSessionChurnAllocs fleet.
func BenchmarkSessionChurn(b *testing.B) {
	churn := churnFleet(b, 1<<14)
	for i := 0; i < 10; i++ {
		churn()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn()
	}
}
