package fleet

// Tests for hot-key replication wired through the fleet: replica
// warm-in at barriers, idempotent fan-out with non-idempotent calls
// pinned to the primary, the Release-drains-the-replica-set
// regression, and bit-for-bit determinism with replication enabled.

import (
	"fmt"
	"testing"

	"repro/internal/loadmgr"
	"repro/internal/placement"
)

// repOpts is testOpts plus the replicating placement (and the
// idempotent-aware provision, so incr is actually replicable).
func repOpts(shards, maxReplicas int) ([]Option, *placement.Replicated) {
	rep := placement.NewReplicated(placement.ReplicatedConfig{
		Options:     loadmgr.Options{ImbalanceThreshold: 1.05, Seed: 7},
		MaxReplicas: maxReplicas,
	})
	opts := append(testOpts(shards),
		WithProvision(libcProvisionIdem),
		WithPlacement(rep))
	return opts, rep
}

// hotPlan drives one rebalance round of a dominant-key workload: the
// hot key issues `hot` idempotent calls, the other keys one each.
func hotPlan(incr uint32, keys, hot int) []Request {
	var plan []Request
	for i := 0; i < hot; i++ {
		plan = append(plan, Request{Key: "hot", FuncID: incr, Args: []uint32{uint32(i)}})
	}
	for c := 1; c < keys; c++ {
		plan = append(plan, Request{Key: fmt.Sprintf("w%02d", c), FuncID: incr, Args: []uint32{uint32(c)}})
	}
	return plan
}

// replicate drives rounds until the hot key holds more than one
// binding, returning the fleet (sessions warm on every replica shard).
func replicate(t *testing.T, f *Fleet, rounds int) {
	t.Helper()
	incr := incrID(t, f)
	for round := 0; round < rounds; round++ {
		if err := respErr(f.RunPlan(hotPlan(incr, 4, 24))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if got := len(f.placement().Replicas("hot")); got < 2 {
		t.Fatalf("hot key holds %d bindings after %d dominant rounds, want >= 2", got, rounds)
	}
}

func TestReplicationFansOutHotKey(t *testing.T) {
	opts, rep := repOpts(4, 4)
	f := newTestFleet(t, opts...)
	replicate(t, f, 4)
	incr := incrID(t, f)

	st := f.Stats()
	if st.ReplicasAdded == 0 {
		t.Fatal("no replica warm-ins counted")
	}
	// Replica shards answered idempotent calls: the hit distribution
	// shows the hot key served from more than one shard.
	dist := rep.HitDistribution()["hot"]
	if len(dist) < 2 {
		t.Fatalf("hit distribution %v, want >= 2 shards", dist)
	}
	for _, h := range dist {
		if h.Calls == 0 {
			t.Errorf("replica shard %d served no calls", h.Shard)
		}
	}
	// Values are correct from every replica (idempotence = consistency).
	for i := uint32(0); i < 8; i++ {
		resps, err := f.RunPlan([]Request{{Key: "hot", FuncID: incr, Args: []uint32{i}}})
		if err != nil || resps[0].Err != nil || resps[0].Val != i+1 {
			t.Fatalf("replicated call incr(%d) = %+v, %v", i, resps[0], err)
		}
	}
}

// TestNonIdempotentPinsToPrimary: calls to a function the spec does
// not declare idempotent always land on the replicated key's primary.
func TestNonIdempotentPinsToPrimary(t *testing.T) {
	opts, _ := repOpts(4, 4)
	f := newTestFleet(t, opts...)
	replicate(t, f, 4)
	getpid, ok := f.FuncID("getpid")
	if !ok {
		t.Fatal("libc lacks getpid")
	}
	primary, _ := f.placement().Lookup("hot")
	for i := 0; i < 6; i++ {
		resps, err := f.RunPlan([]Request{{Key: "hot", FuncID: getpid}})
		if err != nil || resps[0].Err != nil || resps[0].Errno != 0 {
			t.Fatalf("getpid via replicated key: %+v, %v", resps[0], err)
		}
		if resps[0].Shard != primary {
			t.Fatalf("non-idempotent call served by shard %d, primary is %d", resps[0].Shard, primary)
		}
	}
}

// TestReleaseDrainsReplicaSet is the regression test for Release on a
// replicated hot key between barriers: every binding must be
// reclaimed (no orphaned load in PoolLoad) and every replica's warm
// session must be torn down on its shard.
func TestReleaseDrainsReplicaSet(t *testing.T) {
	opts, _ := repOpts(4, 4)
	f := newTestFleet(t, opts...)
	replicate(t, f, 4)
	incr := incrID(t, f)

	reps := f.placement().Replicas("hot")
	if err := f.Release("hot"); err != nil {
		t.Fatal(err)
	}
	if got := f.placement().Replicas("hot"); len(got) != 0 {
		t.Fatalf("bindings after Release = %v, want none (replica set must drain)", got)
	}
	// The other three keys keep exactly one binding each: the released
	// replica set left no orphaned slots behind in the load accounting.
	load, total := f.PoolLoad(), 0
	for _, n := range load {
		total += n
	}
	if total != 3 {
		t.Fatalf("PoolLoad = %v (sum %d) after releasing the replicated key, want 3 bindings", load, total)
	}
	// No warm session survives anywhere the replicas lived.
	st := f.Stats()
	live := 0
	for _, s := range st.PerShard {
		live += s.LiveSessions
	}
	if live != 3 {
		t.Fatalf("live sessions = %d after Release (replicas were on %v), want 3", live, reps)
	}
	// The key comes back cold and correct.
	v, err := f.Call("hot", incr, 9)
	if err != nil || v != 10 {
		t.Fatalf("Call after Release = (%d, %v), want (10, nil)", v, err)
	}
}

// TestReplicationDeterministicCycles: RunPlan cycle counts stay
// bit-for-bit identical run-to-run with replication (and migration)
// enabled — replication is part of the deterministic barrier protocol,
// not a source of noise.
func TestReplicationDeterministicCycles(t *testing.T) {
	run := func() ([]uint64, uint64, uint64) {
		opts, _ := repOpts(4, 4)
		f := newTestFleet(t, opts...)
		incr := incrID(t, f)
		for round := 0; round < 5; round++ {
			if err := respErr(f.RunPlan(hotPlan(incr, 6, 30))); err != nil {
				t.Fatal(err)
			}
		}
		st := f.Stats()
		cycles := make([]uint64, len(st.PerShard))
		for i, s := range st.PerShard {
			cycles[i] = s.Cycles
		}
		return cycles, st.ReplicasAdded, st.Migrations
	}
	c1, r1, m1 := run()
	c2, r2, m2 := run()
	if r1 == 0 {
		t.Fatal("determinism run added no replicas; strengthen the skew")
	}
	if r1 != r2 || m1 != m2 {
		t.Fatalf("replica/migration counts differ: (%d,%d) vs (%d,%d)", r1, m1, r2, m2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("shard %d cycles differ with replication on: %d vs %d", i, c1[i], c2[i])
		}
	}
}

// TestReplicaShrinksWhenHeatFades: once the hot key cools, barriers
// drain replicas again (counted per shard as ReplicasOut).
func TestReplicaShrinksWhenHeatFades(t *testing.T) {
	opts, _ := repOpts(4, 4)
	f := newTestFleet(t, opts...)
	replicate(t, f, 4)
	incr := incrID(t, f)
	grown := len(f.placement().Replicas("hot"))
	// Cold rounds: only the background keys call; the hot key's EWMA
	// decays and the sizing drops replicas at each barrier.
	for round := 0; round < 6; round++ {
		var plan []Request
		for c := 1; c < 4; c++ {
			plan = append(plan, Request{Key: fmt.Sprintf("w%02d", c), FuncID: incr, Args: []uint32{uint32(round)}})
		}
		if err := respErr(f.RunPlan(plan)); err != nil {
			t.Fatal(err)
		}
	}
	shrunk := len(f.placement().Replicas("hot"))
	if shrunk >= grown {
		t.Fatalf("replica set did not shrink after cooling: %d -> %d", grown, shrunk)
	}
	if st := f.Stats(); st.ReplicasDropped == 0 {
		t.Error("no replica drains counted despite shrink")
	}
}

// scriptedPlacement is a sticky pool whose Rebalance replays one
// scripted plan per barrier.
type scriptedPlacement struct {
	*placement.Sticky
	plans [][]placement.Move
}

func (s *scriptedPlacement) Rebalance() []placement.Move {
	if len(s.plans) == 0 {
		return nil
	}
	plan := s.plans[0]
	s.plans = s.plans[1:]
	return plan
}

// TestRebalanceDrainThenMigrateKeepsBinding regresses a lost binding:
// a round that drains a key's replica on shard S and then migrates the
// key onto S must leave the key bound to S, warm. The replica drain's
// session teardown used to report an eviction back to the placement;
// when that report ran after the migration's commit, it dropped the
// new binding, so the result depended on goroutine timing (it made the
// suite's chaos-kill curve nondeterministic).
func TestRebalanceDrainThenMigrateKeepsBinding(t *testing.T) {
	sp := &scriptedPlacement{Sticky: placement.NewSticky()}
	f := newTestFleet(t, append(testOpts(3), WithPlacement(sp))...)
	incr := incrID(t, f)
	call := func() Response {
		t.Helper()
		resps, err := f.RunPlan([]Request{{Key: "k", FuncID: incr, Args: []uint32{1}}})
		if err != nil || resps[0].Err != nil || resps[0].Errno != 0 {
			t.Fatalf("call: %v %+v", err, resps)
		}
		return resps[0]
	}
	from := call().Shard
	to := (from + 1) % 3
	sp.plans = [][]placement.Move{
		{{Kind: placement.MoveReplicate, Key: "k", From: from, To: to}},
		{{Kind: placement.MoveDrain, Key: "k", From: to, To: from},
			{Kind: placement.MoveMigrate, Key: "k", From: from, To: to}},
	}
	for i := range sp.plans {
		if n, err := f.Rebalance(); err != nil || n == 0 {
			t.Fatalf("rebalance %d: applied %d, err %v", i, n, err)
		}
	}
	if got, ok := sp.Lookup("k"); !ok || got != to {
		t.Fatalf("after drain+migrate: Lookup(k) = %d, %v; want shard %d", got, ok, to)
	}
	opened := f.Stats().SessionsOpened
	if r := call(); r.Shard != to {
		t.Fatalf("next call served by shard %d, want %d", r.Shard, to)
	}
	if got := f.Stats().SessionsOpened; got != opened {
		t.Fatalf("next call opened %d new session(s), want 0 (migrated session is warm)", got-opened)
	}
}
