package fleet

// Elastic-fleet tests: shard lifecycle (AddShard/DrainShard) at
// rebalance barriers and the SLO autoscaler. The headline acceptance
// property mirrors the chaos drill ones — a grow-then-drain schedule
// (4 -> 6 -> 4) under replication replays bit-for-bit, loses zero
// idempotent calls, and leaves every drained shard with zero bindings
// — plus the sentinel-error contract and the warm-in cycle budget.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/loadmgr"
	"repro/internal/placement"
	"repro/internal/trace"
)

// TestAddShardJoinsAtBarrier pins the grow half: a queued add does
// nothing until the next barrier, then the new shard is live, announced
// to placement, and receives fresh keys.
func TestAddShardJoinsAtBarrier(t *testing.T) {
	f := newTestFleet(t, append(testOpts(2), WithProvision(libcProvisionIdem))...)
	incr := incrID(t, f)

	// Fill both shards so the new shard is strictly least loaded.
	var plan []Request
	for c := 0; c < 4; c++ {
		plan = append(plan, Request{Key: fmt.Sprintf("k%02d", c), FuncID: incr, Args: []uint32{uint32(c)}})
	}
	if err := respErr(f.RunPlan(plan)); err != nil {
		t.Fatal(err)
	}

	id, err := f.AddShard(backend.Default())
	if err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	if id != 2 {
		t.Fatalf("AddShard id = %d, want 2", id)
	}
	// Queued only: nothing visible before the barrier.
	if n := f.LiveShards(); n != 2 {
		t.Fatalf("LiveShards = %d before the barrier, want 2", n)
	}

	// Next barrier provisions it; new keys land on the cold shard.
	fresh := []Request{
		{Key: "new-a", FuncID: incr, Args: []uint32{10}},
		{Key: "new-b", FuncID: incr, Args: []uint32{11}},
	}
	if err := respErr(f.RunPlan(fresh)); err != nil {
		t.Fatal(err)
	}
	if n := f.LiveShards(); n != 3 {
		t.Fatalf("LiveShards = %d after the barrier, want 3", n)
	}
	load := f.PoolLoad()
	if len(load) != 3 || load[2] == 0 {
		t.Fatalf("new shard took no keys: load = %v", load)
	}
	if sid, ok := f.placement().Lookup("new-a"); !ok || sid != 2 {
		t.Fatalf("new-a on shard %d (ok=%v), want 2", sid, ok)
	}
	if st := f.Stats(); st.ShardsAdded != 1 || st.ShardsDrained != 0 || st.ShardsDown != 0 {
		t.Fatalf("stats added/drained/down = %d/%d/%d, want 1/0/0",
			st.ShardsAdded, st.ShardsDrained, st.ShardsDown)
	}
}

// TestDrainShardEvacuatesBindings pins the drain half on sticky
// placement: every binding on the drained shard migrates out at the
// barrier, later calls keep succeeding from the survivors, and the
// drained shard ends with zero bindings and zero load.
func TestDrainShardEvacuatesBindings(t *testing.T) {
	f := newTestFleet(t, append(testOpts(2), WithProvision(libcProvisionIdem))...)
	incr := incrID(t, f)

	var plan []Request
	for c := 0; c < 6; c++ {
		plan = append(plan, Request{Key: fmt.Sprintf("k%02d", c), FuncID: incr, Args: []uint32{uint32(c)}})
	}
	if err := respErr(f.RunPlan(plan)); err != nil {
		t.Fatal(err)
	}
	victims := f.PoolLoad()[0]
	if victims == 0 {
		t.Fatal("no keys on shard 0; test is vacuous")
	}
	if err := f.DrainShard(0); err != nil {
		t.Fatalf("DrainShard: %v", err)
	}

	// The barrier executes the drain; the same plan must still succeed.
	if err := respErr(f.RunPlan(plan)); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.ShardsDrained != 1 {
		t.Fatalf("ShardsDrained = %d, want 1", st.ShardsDrained)
	}
	if st.ShardsDown != 0 {
		t.Fatalf("ShardsDown = %d, want 0 (a drain is not an outage)", st.ShardsDown)
	}
	if got := st.PerShard[1].MigratedIn; got != uint64(victims) {
		t.Fatalf("MigratedIn = %d, want %d (one warm-in per evacuated key)", got, victims)
	}
	if load := f.PoolLoad(); load[0] != 0 || load[1] != 6 {
		t.Fatalf("post-drain load = %v, want [0 6]", load)
	}
	if n := f.LiveShards(); n != 1 {
		t.Fatalf("LiveShards = %d, want 1", n)
	}
	// The evacuation warm-ins are bounded by the re-warm cycle budget.
	if st.WarmMaxCycles == 0 {
		t.Fatal("WarmMaxCycles = 0, want a real warm-in cost")
	}
	if st.WarmMaxCycles > chaos.DefaultRewarmBudgetCycles {
		t.Fatalf("WarmMaxCycles = %d exceeds the re-warm budget %d",
			st.WarmMaxCycles, chaos.DefaultRewarmBudgetCycles)
	}
}

// TestDrainShardErrors pins the sentinel-error contract on the
// lifecycle API, all via errors.Is.
func TestDrainShardErrors(t *testing.T) {
	f := newTestFleet(t, append(testOpts(2), WithProvision(libcProvisionIdem))...)
	incr := incrID(t, f)
	if err := respErr(f.RunPlan([]Request{{Key: "a", FuncID: incr, Args: []uint32{1}}})); err != nil {
		t.Fatal(err)
	}

	if err := f.DrainShard(7); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("DrainShard(7) = %v, want ErrUnknownShard", err)
	}
	if err := f.DrainShard(-1); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("DrainShard(-1) = %v, want ErrUnknownShard", err)
	}
	if err := f.DrainShard(1); err != nil {
		t.Fatalf("DrainShard(1): %v", err)
	}
	if err := f.DrainShard(1); !errors.Is(err, ErrDrainInProgress) {
		t.Fatalf("second DrainShard(1) = %v, want ErrDrainInProgress", err)
	}
	// Only one other live shard remains: draining it too would empty the
	// fleet, so the guard refuses.
	if err := f.DrainShard(0); err == nil {
		t.Fatal("DrainShard(0) on the last live shard succeeded, want refusal")
	}
	// Barrier retires shard 1; a retired shard reads as down.
	if err := respErr(f.RunPlan([]Request{{Key: "a", FuncID: incr, Args: []uint32{2}}})); err != nil {
		t.Fatal(err)
	}
	if err := f.DrainShard(1); !errors.Is(err, ErrShardDown) {
		t.Fatalf("DrainShard(1) after retirement = %v, want ErrShardDown", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.DrainShard(0); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("DrainShard after Close = %v, want ErrFleetClosed", err)
	}
	if _, err := f.AddShard(backend.Default()); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("AddShard after Close = %v, want ErrFleetClosed", err)
	}
}

// TestAddThenDrainSameBarrier pins the ordering guarantee inside one
// barrier: adds apply before drains, so a drain queued alongside an add
// can evacuate onto the capacity arriving at the same barrier.
func TestAddThenDrainSameBarrier(t *testing.T) {
	f := newTestFleet(t, append(testOpts(2), WithProvision(libcProvisionIdem))...)
	incr := incrID(t, f)
	var plan []Request
	for c := 0; c < 4; c++ {
		plan = append(plan, Request{Key: fmt.Sprintf("k%02d", c), FuncID: incr, Args: []uint32{uint32(c)}})
	}
	if err := respErr(f.RunPlan(plan)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddShard(backend.Default()); err != nil {
		t.Fatal(err)
	}
	if err := f.DrainShard(0); err != nil {
		t.Fatal(err)
	}
	if err := respErr(f.RunPlan(plan)); err != nil {
		t.Fatal(err)
	}
	load := f.PoolLoad()
	if load[0] != 0 {
		t.Fatalf("drained shard still holds %d bindings: %v", load[0], load)
	}
	if load[2] == 0 {
		t.Fatalf("same-barrier add took no evacuated keys: %v", load)
	}
	if n := f.LiveShards(); n != 2 {
		t.Fatalf("LiveShards = %d, want 2", n)
	}
}

// elasticDrillRun executes the acceptance schedule on a fresh
// replicated fleet: grow 4 -> 6 (adds at rounds 2 and 3), run hot,
// drain back 6 -> 4 (the added shards, at rounds 5 and 6), under a
// skewed idempotent workload. Returns every response plus the final
// per-shard cycles, placement load, and stats.
func elasticDrillRun(t *testing.T, rounds int) ([]Response, []uint64, []int, Stats) {
	t.Helper()
	rep := placement.NewReplicated(placement.ReplicatedConfig{
		Options:     loadmgr.Options{Migrate: true, ImbalanceThreshold: 1.05, Seed: 11},
		MaxReplicas: 2,
	})
	f, err := Open(append(testOpts(4),
		WithProvision(libcProvisionIdem),
		WithPlacement(rep))...)
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
		switch round {
		case 2, 3:
			id, err := f.AddShard(backend.Default())
			if err != nil {
				t.Fatalf("round %d: AddShard: %v", round, err)
			}
			if want := round + 2; id != want {
				t.Fatalf("round %d: AddShard id = %d, want %d", round, id, want)
			}
		case 5:
			if err := f.DrainShard(4); err != nil {
				t.Fatalf("round %d: DrainShard(4): %v", round, err)
			}
		case 6:
			if err := f.DrainShard(5); err != nil {
				t.Fatalf("round %d: DrainShard(5): %v", round, err)
			}
		}
		plan := skewedPlan(incr, 8, 24)
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
		all = append(all, resps...)
	}
	st := f.Stats()
	cycles := make([]uint64, len(st.PerShard))
	for i, s := range st.PerShard {
		cycles[i] = s.Cycles
	}
	return all, cycles, f.PoolLoad(), st
}

// TestElasticResizeDeterministicNoLostCalls is the acceptance property:
// growing 4 -> 6 -> 4 mid-schedule with replication on, two identical
// runs replay bit-for-bit (responses, per-shard cycle counts, load, and
// every lifecycle counter), zero idempotent calls are lost (checked
// per-call inside the run), and the drained shards end with zero
// bindings.
func TestElasticResizeDeterministicNoLostCalls(t *testing.T) {
	const rounds = 9
	r1, c1, l1, s1 := elasticDrillRun(t, rounds)
	r2, c2, l2, s2 := elasticDrillRun(t, rounds)

	if len(r1) != len(r2) {
		t.Fatalf("response counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		a, b := r1[i], r2[i]
		if a.Val != b.Val || a.Errno != b.Errno || a.Shard != b.Shard ||
			a.LatencyCycles != b.LatencyCycles || (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("response %d differs across identical elastic runs:\n  %+v\n  %+v", i, a, b)
		}
	}
	if len(c1) != len(c2) {
		t.Fatalf("shard counts differ: %d vs %d", len(c1), len(c2))
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
	if s1.ShardsAdded != s2.ShardsAdded || s1.ShardsDrained != s2.ShardsDrained ||
		s1.WarmMaxCycles != s2.WarmMaxCycles || s1.Rewarms != s2.Rewarms {
		t.Fatalf("lifecycle counters differ:\n  %+v\n  %+v", s1, s2)
	}

	if s1.ShardsAdded != 2 || s1.ShardsDrained != 2 {
		t.Fatalf("added/drained = %d/%d, want 2/2", s1.ShardsAdded, s1.ShardsDrained)
	}
	if s1.ShardsDown != 0 {
		t.Fatalf("ShardsDown = %d, want 0 (drains are not outages)", s1.ShardsDown)
	}
	if len(l1) != 6 {
		t.Fatalf("placement tracks %d shards, want 6", len(l1))
	}
	for _, sid := range []int{4, 5} {
		if l1[sid] != 0 {
			t.Fatalf("drained shard %d ends with %d bindings: %v", sid, l1[sid], l1)
		}
	}
	// Every key survives on the original shards (>= 8 bindings: one per
	// key, plus any replica the hot key kept).
	total := 0
	for _, n := range l1 {
		total += n
	}
	if total < 8 {
		t.Fatalf("total bindings = %d, want >= 8: %v", total, l1)
	}
	// And the drain's warm-ins stayed within the declared cycle budget.
	if s1.WarmMaxCycles > chaos.DefaultRewarmBudgetCycles {
		t.Fatalf("WarmMaxCycles = %d exceeds the re-warm budget %d",
			s1.WarmMaxCycles, chaos.DefaultRewarmBudgetCycles)
	}
}

// TestAutoscalerScalesUpOnBreach drives a fleet whose SLO no warm call
// can meet: every measured window breaches, so the controller adds one
// shard per barrier until it hits Max.
func TestAutoscalerScalesUpOnBreach(t *testing.T) {
	f := newTestFleet(t, append(testOpts(1),
		WithProvision(libcProvisionIdem),
		WithAutoscalerConfig(autoscale.Config{SLOMicros: 0.5, Min: 1, Max: 3}))...) // 0.5 us: unmeetable
	incr := incrID(t, f)

	for round := 0; round < 5; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 6, 12))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if n := f.LiveShards(); n != 3 {
		t.Fatalf("LiveShards = %d, want 3 (pinned at Max)", n)
	}
	st := f.Stats()
	if st.ShardsAdded != 2 {
		t.Fatalf("ShardsAdded = %d, want 2", st.ShardsAdded)
	}
	if st.ShardsDrained != 0 {
		t.Fatalf("ShardsDrained = %d, want 0", st.ShardsDrained)
	}
}

// TestAutoscalerScalesDownWhenComfortable starts an oversized fleet
// under a generous SLO: after the hold hysteresis the controller drains
// one shard at a time down to Min, and the fleet keeps serving.
func TestAutoscalerScalesDownWhenComfortable(t *testing.T) {
	f := newTestFleet(t, append(testOpts(3),
		WithProvision(libcProvisionIdem),
		WithAutoscalerConfig(autoscale.Config{SLOMicros: 1e6, Min: 1, Max: 3}))...) // 1 s: everything is comfortable
	incr := incrID(t, f)

	for round := 0; round < 10; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 4, 8))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if n := f.LiveShards(); n != 1 {
		t.Fatalf("LiveShards = %d, want 1 (shrunk to Min)", n)
	}
	st := f.Stats()
	if st.ShardsDrained != 2 {
		t.Fatalf("ShardsDrained = %d, want 2", st.ShardsDrained)
	}
	// The survivor holds every binding; the drained shards hold none.
	load := f.PoolLoad()
	for sid := 1; sid < 3; sid++ {
		if load[sid] != 0 {
			t.Fatalf("drained shard %d still holds %d bindings: %v", sid, load[sid], load)
		}
	}
	if load[0] != 4 {
		t.Fatalf("survivor load = %v, want [4 0 0]", load)
	}
}

// TestAutoscalerRunsDeterministically pins that an autoscaled run — the
// full measure/decide/resize loop — replays bit-for-bit.
func TestAutoscalerRunsDeterministically(t *testing.T) {
	run := func() ([]Response, []uint64, Stats) {
		f, err := Open(append(testOpts(2),
			WithProvision(libcProvisionIdem),
			WithAutoscalerConfig(autoscale.Config{SLOMicros: 40, Min: 1, Max: 4}))...)
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
		for round := 0; round < 8; round++ {
			resps, err := f.RunPlan(skewedPlan(incr, 6, 18))
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
	r1, c1, s1 := run()
	r2, c2, s2 := run()
	if len(r1) != len(r2) || len(c1) != len(c2) {
		t.Fatalf("shape differs: %d/%d responses, %d/%d shards", len(r1), len(r2), len(c1), len(c2))
	}
	for i := range r1 {
		a, b := r1[i], r2[i]
		if a.Val != b.Val || a.Shard != b.Shard || a.LatencyCycles != b.LatencyCycles {
			t.Fatalf("response %d differs:\n  %+v\n  %+v", i, a, b)
		}
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("shard %d cycles differ: %d vs %d", i, c1[i], c2[i])
		}
	}
	if s1.ShardsAdded != s2.ShardsAdded || s1.ShardsDrained != s2.ShardsDrained {
		t.Fatalf("resize counts differ: %d/%d vs %d/%d",
			s1.ShardsAdded, s1.ShardsDrained, s2.ShardsAdded, s2.ShardsDrained)
	}
}

// TestAutoscalerRequiresPositiveSLO pins the option validation.
func TestAutoscalerRequiresPositiveSLO(t *testing.T) {
	_, err := Open(append(testOpts(1), WithAutoscalerConfig(autoscale.Config{SLOMicros: 0, Min: 1, Max: 2}))...)
	if err == nil {
		t.Fatal("Open with a zero SLO succeeded, want error")
	}
}

// TestLookupsDuringGrowth drives FuncID, Release and Stats — what
// smodfleetd serves while its reconcile loop runs barriers — each from
// its own goroutine while three barriers grow the fleet. Under -race it
// fails if any of them reads the shard list or the down marks without
// the fleet lock that growShard appends under.
func TestLookupsDuringGrowth(t *testing.T) {
	f := newTestFleet(t, testOpts(1)...)
	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	loop := func(call func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := call(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	loop(func() error {
		if _, ok := f.FuncID("incr"); !ok {
			return errors.New("FuncID(incr) not found")
		}
		return nil
	})
	loop(func() error { return f.Release("k") })
	loop(func() error { f.Stats(); return nil })
	for i := 0; i < 3; i++ {
		if _, err := f.AddShard(backend.Default()); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Rebalance(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := f.LiveShards(); n != 4 {
		t.Fatalf("LiveShards = %d after three adds, want 4", n)
	}
}

// TestDrainDropsReplicaWhileShardZeroDown is the regression test for a
// drain that skipped its replica drops while shard 0 was down: a drain
// plans a replica drop with no target (To left at 0), and the move
// applier once skipped every move whose To was down. The drop must
// tear the retiring copy down itself, with its replica_out span,
// rather than leave it to the OnShardDown fence.
func TestDrainDropsReplicaWhileShardZeroDown(t *testing.T) {
	opts, _ := repOpts(4, 4)
	rec := trace.New(trace.Config{})
	f := newTestFleet(t, append(opts, WithTrace(rec))...)
	incr := incrID(t, f)
	for round := 0; len(f.placement().Replicas("hot")) < 4; round++ {
		if round == 12 {
			t.Fatalf("hot key holds %v after %d dominant rounds, want all 4 shards",
				f.placement().Replicas("hot"), round)
		}
		if err := respErr(f.RunPlan(hotPlan(incr, 4, 24))); err != nil {
			t.Fatal(err)
		}
	}
	for _, sid := range []int{0, 3} {
		if err := f.DrainShard(sid); err != nil {
			t.Fatal(err)
		}
		before := f.Stats()
		if _, err := f.Rebalance(); err != nil {
			t.Fatal(err)
		}
		if got := f.Stats().Delta(before).ReplicasDropped; got != 1 {
			t.Errorf("drain of shard %d dropped %d replicas, want 1 (the hot key's copy)", sid, got)
		}
	}
	if got := f.placement().Replicas("hot"); len(got) != 2 {
		t.Fatalf("hot key bindings after both drains = %v, want 2", got)
	}
	drops := map[int]int{}
	for _, e := range rec.Snapshot() {
		if e.Kind == trace.KReplicaOut && e.Key == "hot" {
			drops[e.Shard]++
		}
	}
	if drops[3] != 1 {
		t.Errorf("replica_out spans for hot by shard = %v, want one on shard 3", drops)
	}
}
