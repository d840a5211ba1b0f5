package loadmgr_test

import (
	"testing"

	"repro/internal/loadmgr"
	"repro/internal/placement"
)

// TestManagerCostWeightsAndHeatOnly: the placement strategies that
// manage migration on a mixed fleet hand the migrator the fleet's cost
// factors, or withhold them under the heat-only knob. Shard 1 is 2.5x
// slower; raw heat is 11 on shard 0 and 8 on shard 1, so the cost view
// (11 vs 20) moves a key 1 -> 0 while every heat-only view moves one
// 0 -> 1 despite the same bound factors — the heat tracker and
// TestPlanCostAware skew, driven through the routing path.
func TestManagerCostWeightsAndHeatOnly(t *testing.T) {
	opts := loadmgr.Options{Alpha: 1, MaxMovesPerRound: 1, ImbalanceThreshold: 1.05}
	cases := []struct {
		name     string
		strategy placement.Placement
		from, to int
	}{
		{"costaware", placement.NewCostAware(opts), 1, 0},
		{"heatmigrate", placement.NewHeatMigrate(opts), 0, 1},
		{"replicated-heatonly", placement.NewReplicated(placement.ReplicatedConfig{
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
				if sid := s.Route(placement.Call{Key: k.key}); sid != k.shard {
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
