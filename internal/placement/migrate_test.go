package placement

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/loadmgr"
)

// plan runs b's migrator once over its folded heat, weighing shards by
// costw (nil = raw heat), with the keys in skip fenced off.
func plan(b *balancer, costw []float64, skip map[string]bool) []Move {
	b.costw = costw
	b.mask = b.pool.appendUnavailable(b.mask[:0])
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.planMigrations(nil, skip)
}

// skewedBalancer builds heat with shard 0 clearly overloaded: one big
// key plus a movable medium key on shard 0, a quiet shard 1.
func skewedBalancer(t *testing.T, opts loadmgr.Options) *balancer {
	opts.Alpha = 1.0
	h := tunedBalancer(t, 2, opts)
	h.record("big", "", 0, 10)
	h.record("medium", "", 0, 4)
	h.record("small", "", 1, 1)
	advance(h)
	return h
}

func TestPlanMovesHotKeyToColdShard(t *testing.T) {
	h := skewedBalancer(t, loadmgr.Options{Migrate: true, MaxMovesPerRound: 1})
	moves := plan(h, nil, nil)
	if len(moves) != 1 {
		t.Fatalf("plan = %v, want exactly 1 move", moves)
	}
	// "big" (heat 10) exceeds the hot/cold gap (13) only if moving it
	// would not help; here gap = 14-1 = 13 > 10, so big moves first.
	want := Move{Kind: MoveMigrate, Key: "big", From: 0, To: 1}
	if moves[0] != want {
		t.Fatalf("move = %+v, want %+v", moves[0], want)
	}
	// The heat's view already reflects the move.
	if _, sid := keyHeat(h, "big"); sid != 1 {
		t.Fatalf("big still on shard %d after plan", sid)
	}
}

func TestPlanSkipsKeyHotterThanGap(t *testing.T) {
	h := tunedBalancer(t, 2, loadmgr.Options{Alpha: 1.0, Migrate: true, MaxMovesPerRound: 1, ImbalanceThreshold: 1.01})
	h.record("huge", "", 0, 10)
	h.record("med", "", 0, 3)
	h.record("busy", "", 1, 9)
	advance(h)
	// gap = 13-9 = 4: moving "huge" (10) would invert the imbalance;
	// the planner must fall through to "med" (3).
	moves := plan(h, nil, nil)
	if len(moves) != 1 || moves[0].Key != "med" {
		t.Fatalf("plan = %v, want [med 0->1]", moves)
	}
}

func TestPlanRespectsThresholdAndBalance(t *testing.T) {
	h := tunedBalancer(t, 2, loadmgr.Options{Alpha: 1.0, Migrate: true})
	h.record("a", "", 0, 5)
	h.record("b", "", 1, 5)
	advance(h)
	if moves := plan(h, nil, nil); len(moves) != 0 {
		t.Fatalf("balanced fleet planned moves: %v", moves)
	}
}

func TestPlanCooldownPreventsFlapping(t *testing.T) {
	h := skewedBalancer(t, loadmgr.Options{Migrate: true, MaxMovesPerRound: 1, CooldownRounds: 10})
	first := plan(h, nil, nil)
	if len(first) != 1 {
		t.Fatalf("first plan = %v, want 1 move", first)
	}
	// Re-skew so the migrated key's new home is now the hot shard; the
	// cooling key must not move back.
	moved := first[0].Key
	for round := 0; round < 3; round++ {
		h.record(moved, "", first[0].To, 20)
		advance(h)
		for _, mv := range plan(h, nil, nil) {
			if mv.Key == moved {
				t.Fatalf("round %d re-migrated cooling key %q", round, moved)
			}
		}
	}
}

func TestPlanBoundedByMaxMoves(t *testing.T) {
	h := tunedBalancer(t, 4, loadmgr.Options{Alpha: 1.0, Migrate: true, MaxMovesPerRound: 2})
	for _, key := range []string{"k1", "k2", "k3", "k4", "k5", "k6"} {
		h.record(key, "", 0, 3)
	}
	advance(h)
	if moves := plan(h, nil, nil); len(moves) > 2 {
		t.Fatalf("plan exceeded MaxMovesPerRound: %v", moves)
	}
}

func TestPlanDeterministicAcrossSeededRuns(t *testing.T) {
	run := func(seed int64) [][]Move {
		h := tunedBalancer(t, 3, loadmgr.Options{Alpha: 0.5, Migrate: true, Seed: seed, ImbalanceThreshold: 1.05})
		var plans [][]Move
		for round := 0; round < 5; round++ {
			// Equal-heat keys: the seeded tie-break decides.
			for i := 0; i < 4; i++ {
				h.record("x", "", 0, 1)
				h.record("y", "", 0, 1)
				h.record("z", "", 0, 1)
			}
			advance(h)
			plans = append(plans, plan(h, nil, nil))
		}
		return plans
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%v\n%v", a, b)
	}
}

// TestPlanSeededTieBreakStableAcrossMapOrder pins the seeded tie-break
// against Go's randomized map iteration: the candidate set is built
// from the record map, so if any ordering leaked into the pick,
// repeated runs — with keys inserted in different orders to shuffle
// the map layout — would eventually diverge. Every run must produce
// the identical plan sequence.
func TestPlanSeededTieBreakStableAcrossMapOrder(t *testing.T) {
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	run := func(insertOrder []string) [][]Move {
		h := tunedBalancer(t, 3, loadmgr.Options{Alpha: 1.0, Migrate: true, Seed: 42, MaxMovesPerRound: 3,
			ImbalanceThreshold: 1.05, CooldownRounds: 1})
		// All keys equal heat on shard 0: maximal tie-break pressure.
		for _, k := range insertOrder {
			h.record(k, "", 0, 2)
		}
		h.record("lone", "", 1, 1)
		advance(h)
		var plans [][]Move
		for round := 0; round < 4; round++ {
			plans = append(plans, plan(h, nil, nil))
			for _, k := range insertOrder {
				h.record(k, "", 0, 2)
			}
			advance(h)
		}
		return plans
	}
	base := run(keys)
	for trial := 0; trial < 25; trial++ {
		// Rotate + interleave the insertion order so the runtime lays the
		// map out differently from run to run.
		order := append(append([]string(nil), keys[trial%len(keys):]...), keys[:trial%len(keys)]...)
		if trial%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		if got := run(order); !reflect.DeepEqual(got, base) {
			t.Fatalf("trial %d: plan depends on map insertion order:\nbase %v\ngot  %v", trial, base, got)
		}
	}
}

// TestPlanCostAware: on a mixed fleet the migrator balances estimated
// completion cost, not raw heat. Shard 1 is 2.5x slower; even though
// shard 0 carries more raw heat than shard 1, shard 1's *cost* is
// higher, so keys must flow slow -> fast — the opposite of what a
// heat-only plan (nil weights, as HeatMigrate plans) would do.
func TestPlanCostAware(t *testing.T) {
	build := func() *balancer {
		h := tunedBalancer(t, 2, loadmgr.Options{Alpha: 1.0, MaxMovesPerRound: 1, ImbalanceThreshold: 1.05})
		h.record("fastbig", "", 0, 5)     // shard 0 (fast): raw heat 5.5 total
		h.record("fastsmall", "", 0, 0.5) // movable by the heat-only plan
		h.record("slowhot", "", 1, 4)     // shard 1 (slow): raw heat 4, cost 10
		advance(h)
		return h
	}

	// Heat-only view: shard 0 (heat 5.5) looks hotter than shard 1 (4);
	// a heat-only plan moves fast -> slow.
	heatMoves := plan(build(), nil, nil)
	if len(heatMoves) != 1 || heatMoves[0].From != 0 || heatMoves[0].To != 1 {
		t.Fatalf("heat-only plan = %v, want a 0->1 move", heatMoves)
	}

	// Cost view: shard 1 costs 10 vs shard 0's 5.5; the cost-aware plan
	// moves work off the slow shard onto the fast one.
	costMoves := plan(build(), []float64{1.0, 2.5}, nil)
	if len(costMoves) != 1 || costMoves[0].From != 1 || costMoves[0].To != 0 {
		t.Fatalf("cost-aware plan = %v, want a 1->0 move", costMoves)
	}
}

// TestPlanCostAwareSkipsOvershoot: a key whose cost on the destination
// would meet or exceed the gap is skipped, in destination-cost units.
func TestPlanCostAwareSkipsOvershoot(t *testing.T) {
	h := tunedBalancer(t, 2, loadmgr.Options{Alpha: 1.0, Migrate: true, MaxMovesPerRound: 1, ImbalanceThreshold: 1.05})
	h.record("huge", "", 0, 4) // on the slow destination this would cost 10
	h.record("tiny", "", 0, 1) // costs 2.5 there: fits the gap
	h.record("idle", "", 1, 0.4)
	advance(h)
	// Shard 1 is the slow one (weight 2.5): gap = 5*1 - 0.4*2.5 = 4.
	// "huge" at destination cost 10 >= 4 must be skipped; "tiny" at 2.5
	// fits.
	moves := plan(h, []float64{1.0, 2.5}, nil)
	if len(moves) != 1 || moves[0].Key != "tiny" {
		t.Fatalf("plan = %v, want [tiny 0->1]", moves)
	}
}

// TestPlanUniformWeightsMatchHeatOnly: explicit all-ones weights and
// nil weights must produce identical plans (the degenerate-fleet
// equivalence the homogeneous determinism tests rely on).
func TestPlanUniformWeightsMatchHeatOnly(t *testing.T) {
	build := func() *balancer {
		h := tunedBalancer(t, 3, loadmgr.Options{Alpha: 0.5, Migrate: true, Seed: 5, ImbalanceThreshold: 1.05})
		for i := 0; i < 4; i++ {
			h.record("x", "", 0, 2)
			h.record("y", "", 0, 2)
			h.record("w", "", 2, 1)
		}
		advance(h)
		return h
	}
	a := plan(build(), nil, nil)
	b := plan(build(), []float64{1, 1, 1}, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nil weights %v != unit weights %v", a, b)
	}
}

// TestMigratorTenantBias pins the QoS eviction guard: with the weight
// table installed, the aggressor's key moves off the hot shard even
// though the victim's key is hotter; without it, raw heat order picks
// the victim's.
func TestMigratorTenantBias(t *testing.T) {
	build := func() *balancer {
		h := tunedBalancer(t, 2, loadmgr.Options{Alpha: 1.0, Migrate: true, MaxMovesPerRound: 1})
		h.record("vic-key", "vic", 0, 6)
		h.record("agg-key", "agg", 0, 5)
		h.record("cold", "agg", 1, 1)
		advance(h)
		return h
	}

	moves := plan(build(), nil, nil)
	if len(moves) != 1 || moves[0].Key != "vic-key" {
		t.Fatalf("unbiased plan = %v, want the hottest key vic-key", moves)
	}

	biased := build()
	biased.SetTenantWeights(map[string]int{"vic": 4, "agg": 1})
	moves = plan(biased, nil, nil)
	if len(moves) != 1 || moves[0].Key != "agg-key" {
		t.Fatalf("biased plan = %v, want the aggressor's agg-key", moves)
	}

	// Clearing the table restores the historical order: the same
	// migrator (its round, cooldowns and rng) over fresh heat.
	cleared := build()
	cleared.rng, cleared.round, cleared.cooldown = biased.rng, biased.round, biased.cooldown
	cleared.SetTenantWeights(nil)
	moves = plan(cleared, nil, nil)
	if len(moves) != 1 || moves[0].Key != "vic-key" {
		t.Fatalf("cleared plan = %v, want vic-key again", moves)
	}
}

// TestTenantOvershareDeterministic: the tenant overshares sum the
// tenants' heat in one order, so they agree to the last bit on every
// run. Summed in map order, three equal-weight tenants at heats 0.1, 0.2
// and 0.3 gave one tenant two different overshares over 200 runs.
func TestTenantOvershareDeterministic(t *testing.T) {
	b := tunedBalancer(t, 2, loadmgr.Options{})
	b.SetTenantWeights(map[string]int{"a": 1, "b": 1, "c": 1})
	b.tenantHeat = map[string]float64{"a": 0.1, "b": 0.2, "c": 0.3}
	seen := map[uint64]int{}
	for i := 0; i < 200; i++ {
		b.mu.Lock()
		seen[math.Float64bits(b.tenantOvershare()["a"])]++
		b.mu.Unlock()
	}
	if len(seen) != 1 {
		t.Fatalf("tenant a's overshare took %d bit patterns over 200 runs: %v", len(seen), seen)
	}
}

// TestManagerCostWeightsAndHeatOnly: the placement strategies that
// manage migration on a mixed fleet hand the migrator the fleet's cost
// factors, or withhold them under the heat-only knob. Shard 1 is 2.5x
// slower; raw heat is 11 on shard 0 and 8 on shard 1, so the cost view
// (11 vs 20) moves a key 1 -> 0 while every heat-only view moves one
// 0 -> 1 despite the same bound factors — the TestPlanCostAware skew,
// driven through the routing path.
func TestManagerCostWeightsAndHeatOnly(t *testing.T) {
	opts := loadmgr.Options{Alpha: 1, MaxMovesPerRound: 1, ImbalanceThreshold: 1.05}
	cases := []struct {
		name     string
		strategy Placement
		from, to int
	}{
		{"costaware", NewCostAware(opts), 1, 0},
		{"heatmigrate", NewHeatMigrate(opts), 0, 1},
		{"replicated-heatonly", NewReplicated(ReplicatedConfig{
			Options:  loadmgr.Options{Migrate: true, Alpha: 1, MaxMovesPerRound: 1, ImbalanceThreshold: 1.05},
			HeatOnly: true,
		}), 0, 1},
	}
	for _, tc := range cases {
		s := tc.strategy
		if err := s.Bind(2, []float64{1.0, 2.5}); err != nil {
			t.Fatal(err)
		}
		// Weighted allocation puts the first two keys on the fast shard
		// 0 (slot costs 1, 2 < 2.5) and the third on the slow shard 1.
		for _, k := range []struct {
			key   string
			calls int
			shard int
		}{{"fastbig", 10, 0}, {"fastsmall", 1, 0}, {"slowhot", 8, 1}} {
			for i := 0; i < k.calls; i++ {
				if sid := s.Route(Call{Key: k.key}); sid != k.shard {
					t.Fatalf("%s: %s routed to shard %d, want %d", tc.name, k.key, sid, k.shard)
				}
			}
		}
		moves := s.Rebalance()
		if len(moves) != 1 || moves[0].From != tc.from || moves[0].To != tc.to {
			t.Fatalf("%s: plan = %v, want one %d->%d move", tc.name, moves, tc.from, tc.to)
		}
	}
}
