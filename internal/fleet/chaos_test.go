package fleet

// Drill property tests for the deterministic chaos engine: the
// recovery invariants the ISSUE pins are stated as properties — a
// seeded kill-one-shard drill is byte-identical across two runs, loses
// zero idempotent calls on replicated keys, and re-warms every
// orphaned (non-replicated) key within the declared cycle budget — and
// FuzzChaosRoute interleaves random fault schedules with random
// routing scripts to hunt for interleavings that break them.

import (
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/loadmgr"
	"repro/internal/placement"
)

// chaosEngine parses a schedule spec or fails the test.
func chaosEngine(t *testing.T, spec string, shards int) *chaos.Engine {
	t.Helper()
	s, err := chaos.Parse(spec)
	if err != nil {
		t.Fatalf("chaos.Parse(%q): %v", spec, err)
	}
	if err := s.Validate(shards); err != nil {
		t.Fatalf("chaos schedule %q: %v", spec, err)
	}
	return chaos.NewEngine(s)
}

// newReplicatedChaosFleet opens a homogeneous replicated fleet with a
// drill schedule installed.
func newReplicatedChaosFleet(t *testing.T, shards int, spec string) *Fleet {
	t.Helper()
	rep := placement.NewReplicated(placement.ReplicatedConfig{
		Options:     loadmgr.Options{ImbalanceThreshold: 1.05, Seed: 7},
		MaxReplicas: shards,
	})
	return newTestFleet(t, append(testOpts(shards),
		WithProvision(libcProvisionIdem),
		WithPlacement(rep),
		WithChaos(chaosEngine(t, spec, shards)))...)
}

// TestChaosKillShardFailoverNoLostCalls pins the headline availability
// property: with a hot idempotent key replicated across shards, killing
// a shard mid-drill loses zero idempotent calls — every call before,
// at, and after the kill barrier returns the correct value from a live
// shard.
func TestChaosKillShardFailoverNoLostCalls(t *testing.T) {
	const shards = 3
	f := newReplicatedChaosFleet(t, shards, "kill:0@4")
	incr := incrID(t, f)

	for round := 0; round < 8; round++ {
		plan := skewedPlan(incr, 6, 24) // k00 dominant: replicates
		resps, err := f.RunPlan(plan)
		if err != nil {
			t.Fatalf("round %d: RunPlan: %v", round, err)
		}
		for i, r := range resps {
			if r.Err != nil || r.Errno != 0 {
				t.Fatalf("round %d call %d lost: err=%v errno=%d (shard %d)",
					round, i, r.Err, r.Errno, r.Shard)
			}
			if want := plan[i].Args[0] + 1; r.Val != want {
				t.Fatalf("round %d call %d: got %d, want %d", round, i, r.Val, want)
			}
		}
	}
	st := f.Stats()
	if st.ShardsDown != 1 {
		t.Fatalf("ShardsDown = %d, want 1", st.ShardsDown)
	}
	// The dead shard must hold no bindings and receive no routes.
	load := f.PoolLoad()
	if load[0] != 0 {
		t.Fatalf("dead shard still holds %d bindings: %v", load[0], load)
	}
}

// TestChaosKillRewarmsOrphansWithinBudget pins the recovery SLO: every
// key orphaned by a shard death is re-warmed on its failover shard
// within the declared cycle budget, and serves later calls from that
// warm session (no second attach).
func TestChaosKillRewarmsOrphansWithinBudget(t *testing.T) {
	const shards = 2
	// Sticky placement: nothing replicates, so every key on the dead
	// shard is an orphan that must pay a re-warm.
	f := newTestFleet(t, append(testOpts(shards),
		WithProvision(libcProvisionIdem),
		WithChaos(chaosEngine(t, "kill:0@2", shards)))...)
	incr := incrID(t, f)

	// Barrier 1: 6 keys alternate shards — k00, k02, k04 land on 0.
	var plan []Request
	for c := 0; c < 6; c++ {
		plan = append(plan, Request{Key: fmt.Sprintf("k%02d", c), FuncID: incr, Args: []uint32{uint32(c)}})
	}
	if err := respErr(f.RunPlan(plan)); err != nil {
		t.Fatal(err)
	}
	orphans := 0
	for _, l := range f.PoolLoad()[:1] {
		orphans += l
	}
	if orphans == 0 {
		t.Fatal("no keys landed on shard 0; test is vacuous")
	}
	sessionsBefore := f.Stats().SessionsOpened

	// Barrier 2 fires the kill; the same plan must still fully succeed.
	if err := respErr(f.RunPlan(plan)); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.ShardsDown != 1 {
		t.Fatalf("ShardsDown = %d, want 1", st.ShardsDown)
	}
	if st.Rewarms != uint64(orphans) {
		t.Fatalf("Rewarms = %d, want %d (one per orphaned key)", st.Rewarms, orphans)
	}
	if st.RewarmMaxCycles == 0 {
		t.Fatal("RewarmMaxCycles = 0, want a real attach cost")
	}
	if st.RewarmMaxCycles > chaos.DefaultRewarmBudgetCycles {
		t.Fatalf("RewarmMaxCycles = %d exceeds the declared budget %d",
			st.RewarmMaxCycles, chaos.DefaultRewarmBudgetCycles)
	}
	// The re-warms opened the failover sessions; the post-kill plan must
	// have been served from them (no additional attach beyond those).
	wantSessions := sessionsBefore + uint64(orphans)
	if st.SessionsOpened != wantSessions {
		t.Fatalf("SessionsOpened = %d, want %d (re-warms only, no cold attach)",
			st.SessionsOpened, wantSessions)
	}
	if load := f.PoolLoad(); load[0] != 0 || load[1] != 6 {
		t.Fatalf("post-kill load = %v, want [0 6]", load)
	}
}

// chaosDrillRun executes a fixed skewed workload under a fixed fault
// schedule on a fresh mixed replicated fleet and returns every
// response plus the final per-shard cycles and stats — the byte-level
// fingerprint two identical drills must share.
func chaosDrillRun(t *testing.T, spec string, rounds int) ([]Response, []uint64, Stats) {
	t.Helper()
	as, err := backend.DefaultCatalog().ParseMix("fast=2,slow=1")
	if err != nil {
		t.Fatal(err)
	}
	rep := placement.NewReplicated(placement.ReplicatedConfig{
		Options:     loadmgr.Options{Migrate: true, ImbalanceThreshold: 1.05, Seed: 11},
		MaxReplicas: 2,
	})
	f, err := Open(append(testOpts(0),
		WithBackends(as),
		WithProvision(libcProvisionIdem),
		WithPlacement(rep),
		WithChaos(chaosEngine(t, spec, len(as))))...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	incr := incrID(t, f)

	var all []Response
	for round := 0; round < rounds; round++ {
		resps, err := f.RunPlan(skewedPlan(incr, 6, 20))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		all = append(all, resps...)
	}
	st := f.Stats()
	cycles := make([]uint64, len(st.PerShard))
	for i, s := range st.PerShard {
		cycles[i] = s.Cycles
	}
	return all, cycles, st
}

// TestChaosDrillDeterministic pins the reproducibility property: two
// runs of the same fault schedule against the same workload are
// byte-identical — responses, per-shard cycle counts, and every chaos
// counter.
func TestChaosDrillDeterministic(t *testing.T) {
	const spec = "drop:k03@2;corrupt:k00@3;kill:1@4;stall:0@5+50000"
	r1, c1, s1 := chaosDrillRun(t, spec, 7)
	r2, c2, s2 := chaosDrillRun(t, spec, 7)
	if len(r1) != len(r2) {
		t.Fatalf("response counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		a, b := r1[i], r2[i]
		if a.Val != b.Val || a.Errno != b.Errno || a.Shard != b.Shard ||
			a.LatencyCycles != b.LatencyCycles || (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("response %d differs across identical drills:\n  %+v\n  %+v", i, a, b)
		}
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("shard %d cycles differ: %d vs %d", i, c1[i], c2[i])
		}
	}
	if s1.ShardsDown != s2.ShardsDown || s1.Rewarms != s2.Rewarms ||
		s1.RewarmMaxCycles != s2.RewarmMaxCycles || s1.StallCycles != s2.StallCycles ||
		s1.SessionsDropped != s2.SessionsDropped || s1.CorruptWarms != s2.CorruptWarms {
		t.Fatalf("chaos counters differ:\n  %+v\n  %+v", s1, s2)
	}
	if s1.ShardsDown != 1 {
		t.Fatalf("drill killed %d shards, want 1", s1.ShardsDown)
	}
	if s1.StallCycles != 50000 {
		t.Fatalf("StallCycles = %d, want 50000", s1.StallCycles)
	}
	if s1.SessionsDropped != 1 {
		t.Fatalf("SessionsDropped = %d, want 1", s1.SessionsDropped)
	}
}

// TestChaosStallAdvancesShardClock pins the stall fault: the stalled
// shard's clock jumps by exactly the scheduled cycles relative to an
// un-stalled twin run.
func TestChaosStallAdvancesShardClock(t *testing.T) {
	const stall = 123456
	run := func(spec string) Stats {
		opts := append(testOpts(2), WithProvision(libcProvisionIdem))
		if spec != "" {
			opts = append(opts, WithChaos(chaosEngine(t, spec, 2)))
		}
		f := newTestFleet(t, opts...)
		incr := incrID(t, f)
		for round := 0; round < 3; round++ {
			if err := respErr(f.RunPlan(skewedPlan(incr, 4, 4))); err != nil {
				t.Fatal(err)
			}
		}
		return f.Stats()
	}
	healthy := run("")
	stalled := run(fmt.Sprintf("stall:1@2+%d", stall))
	if stalled.StallCycles != stall {
		t.Fatalf("StallCycles = %d, want %d", stalled.StallCycles, stall)
	}
	got := stalled.PerShard[1].Cycles - healthy.PerShard[1].Cycles
	if got != stall {
		t.Fatalf("stalled shard clock advanced %d extra cycles, want %d", got, stall)
	}
	if stalled.PerShard[0].Cycles != healthy.PerShard[0].Cycles {
		t.Fatal("stall leaked onto the un-stalled shard")
	}
}

// TestChaosDropSessionRecovers pins the drop fault: the victim key's
// session is torn down at the barrier and the key recovers by
// re-attaching cold on its next call.
func TestChaosDropSessionRecovers(t *testing.T) {
	f := newTestFleet(t, append(testOpts(1),
		WithProvision(libcProvisionIdem),
		WithChaos(chaosEngine(t, "drop:a@2", 1)))...)
	incr := incrID(t, f)

	plan := []Request{
		{Key: "a", FuncID: incr, Args: []uint32{1}},
		{Key: "b", FuncID: incr, Args: []uint32{2}},
	}
	if err := respErr(f.RunPlan(plan)); err != nil { // barrier 1: attach both
		t.Fatal(err)
	}
	base := f.Stats().SessionsOpened
	if err := respErr(f.RunPlan(plan)); err != nil { // barrier 2: drop a, re-attach
		t.Fatal(err)
	}
	st := f.Stats()
	if st.SessionsDropped != 1 {
		t.Fatalf("SessionsDropped = %d, want 1", st.SessionsDropped)
	}
	if st.SessionsOpened != base+1 {
		t.Fatalf("SessionsOpened = %d, want %d (one cold re-attach)", st.SessionsOpened, base+1)
	}
	if err := respErr(f.RunPlan(plan)); err != nil { // barrier 3: all warm again
		t.Fatal(err)
	}
	if got := f.Stats().SessionsOpened; got != base+1 {
		t.Fatalf("SessionsOpened grew to %d after recovery, want %d", got, base+1)
	}
}

// TestChaosCorruptWarmRecovers pins the corrupt fault: a poisoned
// warm-in is discarded on arrival (the binding reclaimed), and the key
// recovers by re-allocating cold — no orphaned binding, no lost call.
func TestChaosCorruptWarmRecovers(t *testing.T) {
	const shards = 2
	// Sticky + kill drill: the kill orphans shard 0's keys, and the
	// corrupt fault poisons one orphan's failover re-warm.
	f := newTestFleet(t, append(testOpts(shards),
		WithProvision(libcProvisionIdem),
		WithChaos(chaosEngine(t, "corrupt:k00@2;kill:0@2", shards)))...)
	incr := incrID(t, f)

	var plan []Request
	for c := 0; c < 4; c++ {
		plan = append(plan, Request{Key: fmt.Sprintf("k%02d", c), FuncID: incr, Args: []uint32{uint32(c)}})
	}
	if err := respErr(f.RunPlan(plan)); err != nil {
		t.Fatal(err)
	}
	if sid, ok := f.placement().Lookup("k00"); !ok || sid != 0 {
		t.Fatalf("k00 on shard %d (ok=%v), want 0; test is vacuous", sid, ok)
	}
	if err := respErr(f.RunPlan(plan)); err != nil { // kill + corrupt fire, then calls
		t.Fatal(err)
	}
	st := f.Stats()
	if st.CorruptWarms != 1 {
		t.Fatalf("CorruptWarms = %d, want 1", st.CorruptWarms)
	}
	// k00's poisoned re-warm was discarded, so it re-attached cold on
	// the post-kill call; its binding must be live and load consistent.
	if sid, ok := f.placement().Lookup("k00"); !ok || sid != 1 {
		t.Fatalf("k00 on shard %d (ok=%v) after recovery, want 1", sid, ok)
	}
	if load := f.PoolLoad(); load[0] != 0 || load[1] != 4 {
		t.Fatalf("post-recovery load = %v, want [0 4]", load)
	}
}

// TestChaosKillLastShardSkipped pins the survivor guard: a schedule
// that would kill the only live shard is skipped, not executed, and
// the fleet keeps serving.
func TestChaosKillLastShardSkipped(t *testing.T) {
	f := newTestFleet(t, append(testOpts(1),
		WithProvision(libcProvisionIdem),
		WithChaos(chaos.NewEngine(&chaos.Schedule{Faults: []chaos.Fault{
			{Kind: chaos.KillShard, Barrier: 1, Shard: 0},
		}})))...)
	incr := incrID(t, f)
	for round := 0; round < 3; round++ {
		if err := respErr(f.RunPlan([]Request{{Key: "a", FuncID: incr, Args: []uint32{7}}})); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Stats(); st.ShardsDown != 0 {
		t.Fatalf("ShardsDown = %d, want 0 (last-survivor kill must be skipped)", st.ShardsDown)
	}
}

// TestReleaseDuringMigrationNoOrphanedBinding races Release against
// in-flight rebalance rounds (the ISSUE's regression): however the
// release interleaves with the optimistic plan/commit protocol, the
// final sweep must leave zero bindings and zero placement load — a
// stale commit applied after a release would orphan a binding the
// load accounting counts forever. Run under -race in the chaos CI job.
func TestReleaseDuringMigrationNoOrphanedBinding(t *testing.T) {
	f := newTestFleet(t, append(testOpts(2),
		WithProvision(libcProvisionIdem),
		WithPlacement(placement.NewCostAware(loadmgr.Options{
			ImbalanceThreshold: 1.05, Seed: 5,
		})))...)
	incr := incrID(t, f)

	// Build heat so every RunPlan barrier has migrations to plan.
	for round := 0; round < 3; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 6, 24))); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			if err := f.Release("k00"); err != nil {
				t.Errorf("Release: %v", err)
				return
			}
		}
	}()
	for round := 0; round < 10; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 6, 24))); err != nil {
			t.Fatal(err)
		}
	}
	<-done

	// Final sweep: after releasing every key the placement table must be
	// empty and the load exactly zero on both shards.
	for c := 0; c < 6; c++ {
		if err := f.Release(fmt.Sprintf("k%02d", c)); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.placement().Assigned(); n != 0 {
		t.Fatalf("%d keys still assigned after releasing all", n)
	}
	for sid, n := range f.PoolLoad() {
		if n != 0 {
			t.Fatalf("shard %d placement load %d after releasing all (orphaned binding)", sid, n)
		}
	}
	// The sessions themselves are reclaimed too (modulo none in flight).
	st := f.Stats()
	for _, s := range st.PerShard {
		if s.LiveSessions != 0 {
			t.Fatalf("shard %d still holds %d live sessions after releasing all", s.Shard, s.LiveSessions)
		}
	}
}

// runChaosScript is runRouteScript plus a seeded random fault schedule
// derived from the same fuzz input, on a 3-shard mixed fleet.
func runChaosScript(t *testing.T, ops []routeOp, seed int64, faults int) ([]Response, []uint64, []int, Stats) {
	t.Helper()
	as, err := backend.DefaultCatalog().ParseMix("fast=2,slow=1")
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"f0", "f1", "f2", "f3", "f4", "f5"}
	sched := chaos.Random(seed, 8, len(as), keys, faults)
	rep := placement.NewReplicated(placement.ReplicatedConfig{
		Options:     loadmgr.Options{Migrate: true, ImbalanceThreshold: 1.05, Seed: 11},
		MaxReplicas: 2,
	})
	f, err := Open(append(testOpts(0),
		WithBackends(as),
		WithProvision(libcProvisionIdem),
		WithPlacement(rep),
		WithChaos(chaos.NewEngine(sched)))...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	var all []Response
	var batch []Request
	flush := func() {
		if len(batch) == 0 {
			return
		}
		resps, err := f.RunPlan(batch)
		if err != nil {
			t.Fatalf("RunPlan: %v", err)
		}
		all = append(all, resps...)
		batch = nil
	}
	for _, op := range ops {
		if op.release {
			flush()
			if err := f.Release(op.req.Key); err != nil {
				t.Fatalf("Release(%s): %v", op.req.Key, err)
			}
			continue
		}
		batch = append(batch, op.req)
	}
	flush()

	st := f.Stats()
	cycles := make([]uint64, len(st.PerShard))
	for i, s := range st.PerShard {
		cycles[i] = s.Cycles
	}
	return all, cycles, f.PoolLoad(), st
}

// FuzzChaosRoute interleaves a random fault schedule (kills, stalls,
// drops, corrupt warm-ins — derived from the fuzz input) with a random
// routing script and asserts the drill invariants: no call is ever
// lost (every response is a success with the right value), and two
// identical drills are byte-identical.
func FuzzChaosRoute(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3}, int64(1), uint8(3))
	f.Add([]byte{0, 0, 0, 24, 0, 0, 0, 24, 1, 1, 25, 0, 0}, int64(42), uint8(5))
	f.Add([]byte{16, 0, 16, 0, 17, 1, 18, 2, 16, 0, 16, 0}, int64(7), uint8(2))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, int64(99), uint8(8))
	fProbe, err := Open(testOpts(1)...)
	if err != nil {
		f.Fatal(err)
	}
	incr, ok1 := fProbe.FuncID("incr")
	getpid, ok2 := fProbe.FuncID("getpid")
	fProbe.Close()
	if !ok1 || !ok2 {
		f.Fatal("libc lacks incr/getpid")
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64, nFaults uint8) {
		ops := decodeRouteScript(data, incr, getpid)
		if len(ops) == 0 {
			t.Skip("empty script")
		}
		faults := int(nFaults % 12)
		r1, c1, l1, s1 := runChaosScript(t, ops, seed, faults)
		r2, c2, l2, s2 := runChaosScript(t, ops, seed, faults)
		for i, r := range r1 {
			if r.Err != nil || r.Errno != 0 {
				t.Fatalf("call %d lost under chaos: err=%v errno=%d (shard %d)",
					i, r.Err, r.Errno, r.Shard)
			}
		}
		if len(r1) != len(r2) {
			t.Fatalf("response counts differ: %d vs %d", len(r1), len(r2))
		}
		for i := range r1 {
			a, b := r1[i], r2[i]
			if a.Val != b.Val || a.Errno != b.Errno || a.Shard != b.Shard ||
				a.LatencyCycles != b.LatencyCycles || (a.Err == nil) != (b.Err == nil) {
				t.Fatalf("response %d differs across identical drills:\n  %+v\n  %+v", i, a, b)
			}
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("shard %d cycles differ: %d vs %d", i, c1[i], c2[i])
			}
		}
		for i := range l1 {
			if l1[i] != l2[i] {
				t.Fatalf("placement load differs: %v vs %v", l1, l2)
			}
		}
		if s1.ShardsDown != s2.ShardsDown || s1.Rewarms != s2.Rewarms ||
			s1.CorruptWarms != s2.CorruptWarms || s1.StallCycles != s2.StallCycles {
			t.Fatalf("chaos counters differ:\n  %+v\n  %+v", s1, s2)
		}
	})
}
