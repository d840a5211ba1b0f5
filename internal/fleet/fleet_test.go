package fleet

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/placement"
)

// fleetPolicy admits the fleet client processes by principal name.
const fleetPolicy = `authorizer: "POLICY"
licensees: "fleet-client"
conditions: app_domain == "secmodule" -> "allow";
`

// libcProvision registers the SecModule libc on a shard kernel,
// honoring the backend profile's module flavor (modcrypt shards get an
// encrypted archive).
func libcProvision(k *kern.Kernel, sm *core.SMod, p backend.Profile) error {
	lib, err := core.LibCArchive()
	if err != nil {
		return err
	}
	lib, err = backend.ProvisionArchive(sm.ModKeys, lib, p, "fleet-test-key",
		[]byte("fleet test key"))
	if err != nil {
		return err
	}
	_, err = sm.Register(&core.ModuleSpec{
		Name: "libc", Version: 1, Owner: "owner", Lib: lib,
		PolicySrc: []string{fleetPolicy},
	})
	return err
}

// testOpts is the baseline option set every fleet test opens with.
func testOpts(shards int) []Option {
	return []Option{
		WithShards(shards),
		WithModule("libc", 1),
		WithClient(1, ""),
		WithProvision(libcProvision),
	}
}

func newTestFleet(t *testing.T, opts ...Option) *Fleet {
	t.Helper()
	f, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return f
}

func incrID(t *testing.T, f *Fleet) uint32 {
	t.Helper()
	id, ok := f.FuncID("incr")
	if !ok {
		t.Fatal("libc module has no incr")
	}
	return id
}

func TestFleetBasicCalls(t *testing.T) {
	f := newTestFleet(t, testOpts(2)...)
	incr := incrID(t, f)
	for i := uint32(0); i < 20; i++ {
		key := fmt.Sprintf("client-%d", i%4)
		v, err := f.Call(key, incr, i)
		if err != nil {
			t.Fatalf("Call(%s, incr, %d): %v", key, i, err)
		}
		if v != i+1 {
			t.Fatalf("incr(%d) = %d, want %d", i, v, i+1)
		}
	}
	st := f.Stats()
	if st.TotalCalls != 20 {
		t.Errorf("TotalCalls = %d, want 20", st.TotalCalls)
	}
	if st.SessionsOpened != 4 {
		t.Errorf("SessionsOpened = %d, want 4 (one warm session per key)", st.SessionsOpened)
	}
	if st.MakespanCycles == 0 {
		t.Error("MakespanCycles = 0")
	}
}

func TestStickyRouting(t *testing.T) {
	f := newTestFleet(t, testOpts(4)...)
	incr := incrID(t, f)
	submit := func(key string) Response {
		return f.Do(Request{Key: key, FuncID: incr, Args: []uint32{1}})
	}
	for _, key := range []string{"a", "b", "c"} {
		first := submit(key)
		if first.Err != nil || first.Errno != 0 {
			t.Fatalf("first call for %s failed: %+v", key, first)
		}
		for i := 0; i < 5; i++ {
			r := submit(key)
			if r.Shard != first.Shard {
				t.Fatalf("key %s moved shard %d -> %d without Release", key, first.Shard, r.Shard)
			}
		}
	}
	// Three keys over four shards, least-loaded: three distinct shards.
	load := f.PoolLoad()
	assigned := 0
	for _, n := range load {
		if n > 1 {
			t.Errorf("pool load %v not spread least-loaded", load)
		}
		assigned += n
	}
	if assigned != 3 {
		t.Errorf("assigned = %d, want 3", assigned)
	}
}

func TestRunPlanOrderAndValues(t *testing.T) {
	f := newTestFleet(t, testOpts(3)...)
	incr := incrID(t, f)
	var plan []Request
	for c := 0; c < 7; c++ {
		for i := 0; i < 9; i++ {
			plan = append(plan, Request{
				Key:    fmt.Sprintf("c%02d", c),
				FuncID: incr,
				Args:   []uint32{uint32(c*100 + i)},
			})
		}
	}
	resps, err := f.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(plan) {
		t.Fatalf("got %d responses for %d requests", len(resps), len(plan))
	}
	for i, r := range resps {
		if r.Err != nil || r.Errno != 0 {
			t.Fatalf("plan[%d] failed: %+v", i, r)
		}
		if want := plan[i].Args[0] + 1; r.Val != want {
			t.Fatalf("plan[%d]: incr(%d) = %d, want %d", i, plan[i].Args[0], r.Val, want)
		}
	}
	st := f.Stats()
	if st.TotalCalls != uint64(len(plan)) {
		t.Errorf("TotalCalls = %d, want %d", st.TotalCalls, len(plan))
	}
	var sum uint64
	for _, s := range st.PerShard {
		sum += s.Calls
	}
	if sum != st.TotalCalls {
		t.Errorf("per-shard calls sum %d != total %d", sum, st.TotalCalls)
	}
}

func TestReleaseReclaimsSessionAndPoolSlot(t *testing.T) {
	f := newTestFleet(t, testOpts(2)...)
	incr := incrID(t, f)
	if _, err := f.Call("tenant", incr, 7); err != nil {
		t.Fatal(err)
	}
	if f.placement().Assigned() != 1 {
		t.Fatalf("assigned = %d, want 1", f.placement().Assigned())
	}
	st := f.Stats()
	var live int
	for _, s := range st.PerShard {
		live += s.LiveSessions
	}
	if live != 1 {
		t.Fatalf("live sessions = %d, want 1", live)
	}

	if err := f.Release("tenant"); err != nil {
		t.Fatal(err)
	}
	if f.placement().Assigned() != 0 {
		t.Errorf("assigned after Release = %d, want 0", f.placement().Assigned())
	}
	st = f.Stats()
	live = 0
	for _, s := range st.PerShard {
		live += s.LiveSessions
	}
	if live != 0 {
		t.Errorf("live sessions after Release = %d, want 0", live)
	}

	// The key works again after reclaim (fresh session, maybe new shard).
	v, err := f.Call("tenant", incr, 9)
	if err != nil || v != 10 {
		t.Fatalf("call after Release = %d, %v; want 10, nil", v, err)
	}
}

func TestLRUEviction(t *testing.T) {
	f := newTestFleet(t, append(testOpts(1), WithSessionCap(2))...)
	incr := incrID(t, f)
	for round := 0; round < 2; round++ {
		for _, key := range []string{"a", "b", "c", "d"} {
			v, err := f.Call(key, incr, 1)
			if err != nil || v != 2 {
				t.Fatalf("round %d key %s: %d, %v", round, key, v, err)
			}
		}
	}
	st := f.Stats()
	s := st.PerShard[0]
	if s.LiveSessions > 2 {
		t.Errorf("live sessions = %d, want <= cap 2", s.LiveSessions)
	}
	if s.Evictions == 0 {
		t.Error("no evictions despite 4 keys over cap 2")
	}
	// Evicted keys were rebuilt: more sessions than distinct keys.
	if s.SessionsOpened <= 4 {
		t.Errorf("SessionsOpened = %d, want > 4 (reclaim then rebuild)", s.SessionsOpened)
	}
	// Eviction reclaims the pool slot along with the session, so pool
	// assignments track live sessions rather than every key ever seen.
	if got := f.placement().Assigned(); got > 2 {
		t.Errorf("pool assignments = %d, want <= cap 2 (eviction must reclaim slots)", got)
	}
}

// TestConcurrentLiveTraffic hammers a fleet from many goroutines; under
// -race this is the fleet layer's core concurrency test.
func TestConcurrentLiveTraffic(t *testing.T) {
	const (
		shards    = 4
		clients   = 16
		callsEach = 15
	)
	f := newTestFleet(t, testOpts(shards)...)
	incr := incrID(t, f)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := fmt.Sprintf("live-%02d", c)
			for i := 0; i < callsEach; i++ {
				arg := uint32(c*1000 + i)
				v, err := f.Call(key, incr, arg)
				if err != nil {
					errs <- fmt.Errorf("%s call %d: %w", key, i, err)
					return
				}
				if v != arg+1 {
					errs <- fmt.Errorf("%s: incr(%d) = %d", key, arg, v)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := f.Stats()
	if st.TotalCalls != clients*callsEach {
		t.Errorf("TotalCalls = %d, want %d", st.TotalCalls, clients*callsEach)
	}
	if st.SessionsOpened != clients {
		t.Errorf("SessionsOpened = %d, want %d", st.SessionsOpened, clients)
	}
}

func TestCallAfterCloseFails(t *testing.T) {
	f, err := Open(testOpts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	incr, _ := f.FuncID("incr")
	if _, err := f.Call("k", incr, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if _, err := f.Call("k", incr, 1); err == nil {
		t.Error("Call after Close succeeded, want error")
	}
	st := f.Stats()
	if st.TotalCalls != 1 {
		t.Errorf("final TotalCalls = %d, want 1", st.TotalCalls)
	}
}

func TestPolicyDeniedSurfacesErrno(t *testing.T) {
	// policy admits only "fleet-client"
	f := newTestFleet(t, append(testOpts(1), WithClient(1, "stranger"))...)
	incr := incrID(t, f)
	_, err := f.Call("k", incr, 1)
	if err == nil {
		t.Fatal("call by unauthorized principal succeeded")
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := Open(WithModule("libc", 1), WithProvision(libcProvision)); err == nil {
		t.Error("no fleet size accepted")
	}
	if _, err := Open(WithShards(1)); err == nil {
		t.Error("missing WithModule/WithProvision accepted")
	}
	if _, err := Open(WithShards(1), WithModule("nope", 1), WithProvision(libcProvision)); err == nil {
		t.Error("provision not registering the module accepted")
	}
	// A placement strategy is single-use: reusing a bound instance must
	// fail at Open, not corrupt two fleets' routing state.
	p := placement.NewSticky()
	f, err := Open(append(testOpts(1), WithPlacement(p))...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := Open(append(testOpts(1), WithPlacement(p))...); err == nil {
		t.Error("rebinding a used placement strategy accepted")
	}
}

// TestConcurrentDo keeps several calls in flight from concurrent
// goroutines over three keys — the pipelined dispatch path — and
// checks every call resolves with the right value.
func TestConcurrentDo(t *testing.T) {
	f := newTestFleet(t, testOpts(2)...)
	incr := incrID(t, f)
	const inflight = 24
	resps := make([]Response, inflight)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = f.Do(Request{
				Key:    fmt.Sprintf("async-%d", i%3),
				FuncID: incr,
				Args:   []uint32{uint32(100 + i)},
			})
		}(i)
	}
	wg.Wait()
	for i, r := range resps {
		if r.Err != nil || r.Errno != 0 {
			t.Fatalf("call %d failed: %+v", i, r)
		}
		if want := uint32(100 + i + 1); r.Val != want {
			t.Errorf("call %d: got %d, want %d", i, r.Val, want)
		}
		if r.LatencyCycles == 0 {
			t.Errorf("call %d: zero latency", i)
		}
	}
	st := f.Stats()
	if st.TotalCalls != inflight {
		t.Errorf("TotalCalls = %d, want %d", st.TotalCalls, inflight)
	}
}

// TestDoAfterClose verifies clean failure on a closed fleet: the call
// is refused before routing.
func TestDoAfterClose(t *testing.T) {
	f, err := Open(testOpts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	incr, _ := f.FuncID("incr")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r := f.Do(Request{Key: "k", FuncID: incr, Args: []uint32{1}})
	if !errors.Is(r.Err, ErrFleetClosed) || r.Shard != -1 {
		t.Errorf("Do after Close = %+v, want ErrFleetClosed on shard -1", r)
	}
}

// TestRunScheduleBurstQueues submits a same-instant burst to one key:
// calls are served serially by the key's client, so recorded latency
// must grow strictly along the burst (each call queues behind the
// previous ones).
func TestRunScheduleBurstQueues(t *testing.T) {
	f := newTestFleet(t, testOpts(1)...)
	incr := incrID(t, f)
	// Warm the session so the first call does not pay attach setup.
	if _, err := f.Call("burst", incr, 0); err != nil {
		t.Fatal(err)
	}
	const n = 6
	treqs := make([]TimedRequest, n)
	for i := range treqs {
		treqs[i] = TimedRequest{At: 0, Req: Request{Key: "burst", FuncID: incr, Args: []uint32{uint32(i)}}}
	}
	resps, err := f.RunSchedule(treqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if resps[i].Err != nil || resps[i].Errno != 0 {
			t.Fatalf("burst[%d] failed: %+v", i, resps[i])
		}
		if resps[i].LatencyCycles <= resps[i-1].LatencyCycles {
			t.Errorf("burst[%d] latency %d not above burst[%d] latency %d (no queueing?)",
				i, resps[i].LatencyCycles, i-1, resps[i-1].LatencyCycles)
		}
	}
}

// TestRunScheduleIdleAdvance spaces arrivals far beyond the service
// time: the shard must advance its clock over the idle gaps (open-loop
// time base), so the final clock covers the whole schedule span and
// per-call latencies stay flat instead of accumulating.
func TestRunScheduleIdleAdvance(t *testing.T) {
	f := newTestFleet(t, testOpts(1)...)
	incr := incrID(t, f)
	if _, err := f.Call("idle", incr, 0); err != nil {
		t.Fatal(err)
	}
	before := f.Stats().PerShard[0].Cycles
	const gap = 50_000_000 // ~83ms simulated: far beyond one call's service time
	treqs := make([]TimedRequest, 5)
	for i := range treqs {
		treqs[i] = TimedRequest{At: uint64(i) * gap,
			Req: Request{Key: "idle", FuncID: incr, Args: []uint32{uint32(i)}}}
	}
	resps, err := f.RunSchedule(treqs)
	if err != nil {
		t.Fatal(err)
	}
	span := f.Stats().PerShard[0].Cycles - before
	if want := uint64(len(treqs)-1) * gap; span < want {
		t.Errorf("shard advanced %d cycles over schedule, want >= %d (idle gaps skipped?)", span, want)
	}
	// No queueing: every latency is pure service time, far below gap.
	for i, r := range resps {
		if r.Err != nil || r.Errno != 0 {
			t.Fatalf("idle[%d] failed: %+v", i, r)
		}
		if r.LatencyCycles >= gap {
			t.Errorf("idle[%d] latency %d >= gap %d: queued despite idle schedule", i, r.LatencyCycles, gap)
		}
	}
}

// TestRunScheduleRejectsUnsorted: arrival offsets must be sorted.
func TestRunScheduleRejectsUnsorted(t *testing.T) {
	f := newTestFleet(t, testOpts(1)...)
	incr := incrID(t, f)
	_, err := f.RunSchedule([]TimedRequest{
		{At: 10, Req: Request{Key: "a", FuncID: incr, Args: []uint32{1}}},
		{At: 5, Req: Request{Key: "a", FuncID: incr, Args: []uint32{2}}},
	})
	if err == nil {
		t.Error("unsorted schedule accepted")
	}
}
