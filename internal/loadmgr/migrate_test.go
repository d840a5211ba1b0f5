package loadmgr

import (
	"reflect"
	"testing"
)

// skewedTracker builds heat with shard 0 clearly overloaded: one big
// key plus a movable medium key on shard 0, a quiet shard 1.
func skewedTracker() *HeatTracker {
	h := NewHeatTracker(2, 1.0)
	h.Record("big", 0, 10)
	h.Record("medium", 0, 4)
	h.Record("small", 1, 1)
	h.Advance()
	return h
}

func TestPlanMovesHotKeyToColdShard(t *testing.T) {
	h := skewedTracker()
	m := NewMigrator(Options{Migrate: true, MaxMovesPerRound: 1})
	moves := m.Plan(h, nil, nil)
	if len(moves) != 1 {
		t.Fatalf("plan = %v, want exactly 1 move", moves)
	}
	// "big" (heat 10) exceeds the hot/cold gap (13) only if moving it
	// would not help; here gap = 14-1 = 13 > 10, so big moves first.
	want := Migration{Key: "big", From: 0, To: 1}
	if moves[0] != want {
		t.Fatalf("move = %+v, want %+v", moves[0], want)
	}
	// The tracker's view already reflects the move.
	if _, sid := h.KeyHeat("big"); sid != 1 {
		t.Fatalf("big still on shard %d after plan", sid)
	}
}

func TestPlanSkipsKeyHotterThanGap(t *testing.T) {
	h := NewHeatTracker(2, 1.0)
	h.Record("huge", 0, 10)
	h.Record("med", 0, 3)
	h.Record("busy", 1, 9)
	h.Advance()
	// gap = 13-9 = 4: moving "huge" (10) would invert the imbalance;
	// the planner must fall through to "med" (3).
	m := NewMigrator(Options{Migrate: true, MaxMovesPerRound: 1, ImbalanceThreshold: 1.01})
	moves := m.Plan(h, nil, nil)
	if len(moves) != 1 || moves[0].Key != "med" {
		t.Fatalf("plan = %v, want [med 0->1]", moves)
	}
}

func TestPlanRespectsThresholdAndBalance(t *testing.T) {
	h := NewHeatTracker(2, 1.0)
	h.Record("a", 0, 5)
	h.Record("b", 1, 5)
	h.Advance()
	m := NewMigrator(Options{Migrate: true})
	if moves := m.Plan(h, nil, nil); len(moves) != 0 {
		t.Fatalf("balanced fleet planned moves: %v", moves)
	}
}

func TestPlanCooldownPreventsFlapping(t *testing.T) {
	h := skewedTracker()
	m := NewMigrator(Options{Migrate: true, MaxMovesPerRound: 1, CooldownRounds: 10})
	first := m.Plan(h, nil, nil)
	if len(first) != 1 {
		t.Fatalf("first plan = %v, want 1 move", first)
	}
	// Re-skew so the migrated key's new home is now the hot shard; the
	// cooling key must not move back.
	moved := first[0].Key
	for round := 0; round < 3; round++ {
		h.Record(moved, first[0].To, 20)
		h.Advance()
		for _, mv := range m.Plan(h, nil, nil) {
			if mv.Key == moved {
				t.Fatalf("round %d re-migrated cooling key %q", round, moved)
			}
		}
	}
}

func TestPlanBoundedByMaxMoves(t *testing.T) {
	h := NewHeatTracker(4, 1.0)
	for i, key := range []string{"k1", "k2", "k3", "k4", "k5", "k6"} {
		_ = i
		h.Record(key, 0, 3)
	}
	h.Advance()
	m := NewMigrator(Options{Migrate: true, MaxMovesPerRound: 2})
	if moves := m.Plan(h, nil, nil); len(moves) > 2 {
		t.Fatalf("plan exceeded MaxMovesPerRound: %v", moves)
	}
}

func TestPlanDeterministicAcrossSeededRuns(t *testing.T) {
	run := func(seed int64) [][]Migration {
		h := NewHeatTracker(3, 0.5)
		m := NewMigrator(Options{Migrate: true, Seed: seed, ImbalanceThreshold: 1.05})
		var plans [][]Migration
		for round := 0; round < 5; round++ {
			// Equal-heat keys: the seeded tie-break decides.
			for i := 0; i < 4; i++ {
				h.Record("x", 0, 1)
				h.Record("y", 0, 1)
				h.Record("z", 0, 1)
			}
			h.Advance()
			plans = append(plans, m.Plan(h, nil, nil))
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
// from a map (HeatTracker.keysOn), so if any ordering leaked into the
// pick, repeated runs — with keys inserted in different orders to
// shuffle the map layout — would eventually diverge. Every run must
// produce the identical plan sequence.
func TestPlanSeededTieBreakStableAcrossMapOrder(t *testing.T) {
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	run := func(insertOrder []string) [][]Migration {
		h := NewHeatTracker(3, 1.0)
		// All keys equal heat on shard 0: maximal tie-break pressure.
		for _, k := range insertOrder {
			h.Record(k, 0, 2)
		}
		h.Record("lone", 1, 1)
		h.Advance()
		m := NewMigrator(Options{Migrate: true, Seed: 42, MaxMovesPerRound: 3,
			ImbalanceThreshold: 1.05, CooldownRounds: 1})
		var plans [][]Migration
		for round := 0; round < 4; round++ {
			plans = append(plans, m.Plan(h, nil, nil))
			for _, k := range insertOrder {
				h.Record(k, 0, 2)
			}
			h.Advance()
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
// heat-only plan (nil weights, as placement.HeatMigrate passes) would
// do.
func TestPlanCostAware(t *testing.T) {
	build := func() *HeatTracker {
		h := NewHeatTracker(2, 1.0)
		h.Record("fastbig", 0, 5)     // shard 0 (fast): raw heat 5.5 total
		h.Record("fastsmall", 0, 0.5) // movable by the heat-only plan
		h.Record("slowhot", 1, 4)     // shard 1 (slow): raw heat 4, cost 10
		h.Advance()
		return h
	}
	opts := Options{MaxMovesPerRound: 1, ImbalanceThreshold: 1.05}

	// Heat-only view: shard 0 (heat 5.5) looks hotter than shard 1 (4);
	// a heat-only plan moves fast -> slow.
	heatMoves := NewMigrator(opts).Plan(build(), nil, nil)
	if len(heatMoves) != 1 || heatMoves[0].From != 0 || heatMoves[0].To != 1 {
		t.Fatalf("heat-only plan = %v, want a 0->1 move", heatMoves)
	}

	// Cost view: shard 1 costs 10 vs shard 0's 5.5; the cost-aware plan
	// moves work off the slow shard onto the fast one.
	costMoves := NewMigrator(opts).Plan(build(), []float64{1.0, 2.5}, nil)
	if len(costMoves) != 1 || costMoves[0].From != 1 || costMoves[0].To != 0 {
		t.Fatalf("cost-aware plan = %v, want a 1->0 move", costMoves)
	}
}

// TestPlanCostAwareSkipsOvershoot: a key whose cost on the destination
// would meet or exceed the gap is skipped, in destination-cost units.
func TestPlanCostAwareSkipsOvershoot(t *testing.T) {
	h := NewHeatTracker(2, 1.0)
	h.Record("huge", 0, 4) // on the slow destination this would cost 10
	h.Record("tiny", 0, 1) // costs 2.5 there: fits the gap
	h.Record("idle", 1, 0.4)
	h.Advance()
	// Shard 1 is the slow one (weight 2.5): gap = 5*1 - 0.4*2.5 = 4.
	// "huge" at destination cost 10 >= 4 must be skipped; "tiny" at 2.5
	// fits.
	m := NewMigrator(Options{Migrate: true, MaxMovesPerRound: 1, ImbalanceThreshold: 1.05})
	moves := m.Plan(h, []float64{1.0, 2.5}, nil)
	if len(moves) != 1 || moves[0].Key != "tiny" {
		t.Fatalf("plan = %v, want [tiny 0->1]", moves)
	}
}

// TestPlanUniformWeightsMatchHeatOnly: explicit all-ones weights and
// nil weights must produce identical plans (the degenerate-fleet
// equivalence the homogeneous determinism tests rely on).
func TestPlanUniformWeightsMatchHeatOnly(t *testing.T) {
	build := func() *HeatTracker {
		h := NewHeatTracker(3, 0.5)
		for i := 0; i < 4; i++ {
			h.Record("x", 0, 2)
			h.Record("y", 0, 2)
			h.Record("w", 2, 1)
		}
		h.Advance()
		return h
	}
	a := NewMigrator(Options{Migrate: true, Seed: 5, ImbalanceThreshold: 1.05}).Plan(build(), nil, nil)
	b := NewMigrator(Options{Migrate: true, Seed: 5, ImbalanceThreshold: 1.05}).Plan(build(), []float64{1, 1, 1}, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nil weights %v != unit weights %v", a, b)
	}
}
