package fleet

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/loadmgr"
	"repro/internal/placement"
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

// warmCallFleet opens a 1-shard fleet without a result cache, with
// extra options, and warms a session for each of 16 keys, returning it
// with a 256-call plan over those keys.
func warmCallFleet(tb testing.TB, extra ...Option) (*Fleet, []Request) {
	f, err := Open(append(testOpts(1), extra...)...)
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
// A call allocates nothing; what remains is the plan's own four (its
// response slice, its routing counts, its job and the job's done
// channel) spread over its 256 calls.
const warmCallAllocsMax = 0.02

// TestWarmCallAllocs ratchets the allocations of a warm call through
// RunPlan: 1 shard, 16 warm keys, no result cache. On the two-class
// fleet the calls alternate between qosSet's classes and wait in the
// shard's QoS queue, which holds them by value.
func TestWarmCallAllocs(t *testing.T) {
	cases := []struct {
		name    string
		opts    []Option
		tenants []string
	}{
		{"untenanted", nil, nil},
		{"two-class", []Option{WithTenants(qosSet(0, 0))}, []string{"victim", "aggressor"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, plan := warmCallFleet(t, tc.opts...)
			for i := range plan {
				if len(tc.tenants) > 0 {
					plan[i].Tenant = tc.tenants[i%len(tc.tenants)]
				}
			}
			perPlan := testing.AllocsPerRun(20, func() { runWarmPlan(t, f, plan) })
			if perCall := perPlan / float64(len(plan)); perCall > warmCallAllocsMax {
				t.Fatalf("warm call: %.4f allocs, want <= %.2f", perCall, warmCallAllocsMax)
			}
		})
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

// fleetCallAllocs bounds a warm FleetCall, the served path: Do's
// single-call job, which holds its request and response, and the job's
// done channel. The shard queues the call by value.
const fleetCallAllocs = 2

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

// warmDoBytes bounds the heap bytes of a warm Do: one object holding its
// job, request and response, in the 256-byte size class, and the job's
// done channel, in the 112-byte class (go1.24 sizes).
const warmDoBytes = 384

// TestWarmDoBytes gates the heap bytes of a warm Do on the
// TestWarmCallAllocs fleet, averaged over 1,000 calls.
func TestWarmDoBytes(t *testing.T) {
	f, plan := warmCallFleet(t)
	req := plan[0]
	do := func() {
		if r := f.Do(req); r.Err != nil || r.Errno != 0 || r.Val != req.Args[0]+1 {
			t.Fatalf("Do = %+v", r)
		}
	}
	for i := 0; i < 100; i++ {
		do()
	}
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		do()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got > warmDoBytes {
		t.Fatalf("warm Do: %d bytes per call, want <= %d", got, warmDoBytes)
	}
}

// churnFleet opens a 1-shard fleet capped at one warm session, with
// opts, and returns a function that runs a one-call plan of the next of
// keys fresh keys: each evicts the last key's session and opens its
// own. The plans take their tenants from tenants in turn, if any.
func churnFleet(tb testing.TB, keys int, tenants []string, opts ...Option) func() {
	f, err := Open(append(append(testOpts(1), WithSessionCap(1)), opts...)...)
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
		if len(tenants) > 0 {
			plans[i][0].Tenant = tenants[i%len(tenants)]
		}
	}
	next := 0
	return func() {
		runWarmPlan(tb, f, plans[next%keys])
		next++
	}
}

// sessionChurnAllocs bounds a one-call plan that opens a session and
// tears another down. What remains, by call site:
//   - submitGrouped: the plan's response slice, its routing counts and
//     its job (3);
//   - Fleet.enqueue: the job's done channel (1);
//   - shard.ensureClient: the clientProc and its process name (2);
//   - kern.CopyInStr: smod_find's module name (1);
//   - core.openSession: the Session, the handle's name, its Proc and
//     its forked Space (4);
//   - kern.SpawnStepper: the client's Space (1);
//   - one more that the Go runtime counts in MemStats.Mallocs but no
//     heap-profile record names (1).
//
// Entries, anons, amaps, message queues, the client's Proc and Sys,
// the policy query's memory and the new key's placement binding
// allocate nothing; the call waits in its client's queue by value.
const sessionChurnAllocs = 13

// TestSessionChurnAllocs ratchets the allocations of a call that opens
// a session and evicts another. On the two-class fleet the keys
// alternate between qosSet's classes, and the eviction ranks sessions
// by their class's overshare without allocating.
func TestSessionChurnAllocs(t *testing.T) {
	cases := []struct {
		name    string
		opts    []Option
		tenants []string
	}{
		{"untenanted", nil, nil},
		{"two-class", []Option{WithTenants(qosSet(0, 0))}, []string{"victim", "aggressor"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			churn := churnFleet(t, 1000, tc.tenants, tc.opts...)
			for i := 0; i < 10; i++ {
				churn() // warm: frames, spare objects, queues, tables
			}
			if got := testing.AllocsPerRun(200, churn); got > sessionChurnAllocs {
				t.Fatalf("session churn: %.2f allocs per call, want <= %d", got, sessionChurnAllocs)
			}
		})
	}
}

// BenchmarkSessionChurn times calls that each open a session and evict
// another, on the TestSessionChurnAllocs fleet.
func BenchmarkSessionChurn(b *testing.B) {
	churn := churnFleet(b, 1<<14, nil)
	for i := 0; i < 10; i++ {
		churn()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn()
	}
}

// skewFleet opens the benchmark's fleet-skew fleet (2 shards, a 64-entry
// result cache, replication of up to 2 with migration, incr idempotent)
// and warms one session for each of its 64 keys.
func skewFleet(tb testing.TB) (*Fleet, uint32) {
	f, err := Open(idemOpts(2,
		WithResultCache(64),
		WithPlacement(placement.NewReplicated(placement.ReplicatedConfig{
			Options:     loadmgr.Options{Migrate: true, Seed: 1},
			MaxReplicas: 2,
		})))...)
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
	runWarmPlan(tb, f, warmPlan(incr, 64, 64))
	return f, incr
}

// skewSchedule is fleet-skew's offered load at 200k calls per simulated
// second: Poisson arrivals, keys by Zipf(2.0) rank over 64 keys, and
// arguments from 256 values.
func skewSchedule(seed int64, incr uint32, n int) []TimedRequest {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 2.0, 1, 63)
	const meanGap = 599e6 / 200e3 // cycles between arrivals
	out := make([]TimedRequest, n)
	var at float64
	for i := range out {
		at += rng.ExpFloat64() * meanGap
		out[i] = TimedRequest{At: uint64(at), Req: Request{
			Key:    fmt.Sprintf("k%03d", zipf.Uint64()),
			FuncID: incr,
			Args:   []uint32{uint32(rng.Intn(256))},
		}}
	}
	return out
}

// runSkewSchedule runs sched and fails on any call that did not compute
// incr.
func runSkewSchedule(tb testing.TB, f *Fleet, sched []TimedRequest) {
	resps, err := f.RunSchedule(sched)
	if err != nil {
		tb.Fatal(err)
	}
	for i, r := range resps {
		if r.Err != nil || r.Errno != 0 || r.Val != sched[i].Req.Args[0]+1 {
			tb.Fatalf("call %d: %+v", i, r)
		}
	}
}

// runScheduleAllocs bounds the allocations of one RunSchedule on the
// skewFleet, whatever its length: the response slice, the routing
// counts, the position array, the job array, and one done channel per
// involved shard (2). The barrier before it allocates nothing (see
// placement's TestReplicatedRebalanceAllocs).
const runScheduleAllocs = 6

// TestRunScheduleAllocs: a schedule's calls allocate nothing, so a
// 5,000-call schedule on the fleet-skew fleet makes no more allocations
// than a constant, the same bound a 500-call one meets.
func TestRunScheduleAllocs(t *testing.T) {
	f, incr := skewFleet(t)
	for _, n := range []int{500, 5000} {
		sched := skewSchedule(int64(n), incr, n)
		for i := 0; i < 3; i++ {
			runSkewSchedule(t, f, sched) // warm: replica sets, cache, queues
		}
		if got := testing.AllocsPerRun(5, func() { runSkewSchedule(t, f, sched) }); got > runScheduleAllocs {
			t.Fatalf("%d-call schedule: %v allocs, want <= %d", n, got, runScheduleAllocs)
		}
	}
}

// BenchmarkRunSchedule times 5,000-call schedules on the fleet-skew
// fleet, reporting host ns and allocations per call.
func BenchmarkRunSchedule(b *testing.B) {
	f, incr := skewFleet(b)
	sched := skewSchedule(1, incr, 5000)
	runSkewSchedule(b, f, sched)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSkewSchedule(b, f, sched)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	calls := float64(b.N * len(sched))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/calls, "ns/call")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/calls, "allocs/call")
}
