package spec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/placement"
)

// validSpec is the smallest useful v1 document.
const validSpec = `{"schema":"smod-fleet-spec/v1","shards":4}`

func mustParse(t *testing.T, doc string) *FleetSpec {
	t.Helper()
	fs, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse(%s): %v", doc, err)
	}
	return fs
}

// TestParseValid covers the accepted shapes and their normalization.
func TestParseValid(t *testing.T) {
	cases := []struct {
		name  string
		doc   string
		check func(t *testing.T, fs *FleetSpec)
	}{
		{"fixed shards", `{"schema":"smod-fleet-spec/v1","shards":4}`,
			func(t *testing.T, fs *FleetSpec) {
				if fs.Shards != 4 || fs.Placement != PlacementSticky {
					t.Errorf("got shards=%d placement=%q", fs.Shards, fs.Placement)
				}
				if fs.MaxActionsPerBarrier != DefaultMaxActionsPerBarrier {
					t.Errorf("max_actions_per_barrier = %d, want default %d",
						fs.MaxActionsPerBarrier, DefaultMaxActionsPerBarrier)
				}
			}},
		{"mix canonicalized", `{"schema":"smod-fleet-spec/v1","mix":"fast, fast ,slow=2"}`,
			func(t *testing.T, fs *FleetSpec) {
				if fs.Mix != "fast=2,slow=2" {
					t.Errorf("mix = %q, want canonical fast=2,slow=2", fs.Mix)
				}
				if fs.MaxShards() != 4 {
					t.Errorf("MaxShards = %d, want 4", fs.MaxShards())
				}
			}},
		{"autoscale band", `{"schema":"smod-fleet-spec/v1","autoscale":{"min":2,"max":6,"slo_us":60}}`,
			func(t *testing.T, fs *FleetSpec) {
				cfg := fs.AutoscaleConfig()
				if cfg == nil || cfg.Min != 2 || cfg.Max != 6 || cfg.SLOMicros != 60 {
					t.Errorf("AutoscaleConfig = %+v", cfg)
				}
			}},
		{"replicated with cap", `{"schema":"smod-fleet-spec/v1","shards":4,"placement":"replicated","replicas":3,"seed":7}`,
			func(t *testing.T, fs *FleetSpec) {
				if fs.NewPlacement() == nil {
					t.Error("NewPlacement returned nil")
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, mustParse(t, tc.doc))
		})
	}
}

// TestParseErrors is the error-path table: every malformed or
// inconsistent document must be rejected with a message naming the
// problem.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"unknown schema version",
			`{"schema":"smod-fleet-spec/v9","shards":4}`, "unknown schema version"},
		{"missing schema",
			`{"shards":4}`, "unknown schema version"},
		{"unknown field",
			`{"schema":"smod-fleet-spec/v1","shards":4,"sharrds":2}`, "unknown field"},
		{"trailing garbage",
			validSpec + `{"schema":"smod-fleet-spec/v1","shards":1}`, "trailing data"},
		{"no size",
			`{"schema":"smod-fleet-spec/v1"}`, "no fleet size"},
		{"negative shards",
			`{"schema":"smod-fleet-spec/v1","shards":-2}`, "shards must be >= 1"},
		{"two sizing modes",
			`{"schema":"smod-fleet-spec/v1","shards":4,"mix":"fast=4"}`, "mutually exclusive"},
		{"autoscale plus shards",
			`{"schema":"smod-fleet-spec/v1","shards":2,"autoscale":{"min":1,"max":2,"slo_us":60}}`,
			"mutually exclusive"},
		{"unknown strategy",
			`{"schema":"smod-fleet-spec/v1","shards":4,"placement":"roundrobin"}`,
			"unknown placement strategy"},
		{"replica cap exceeds shards",
			`{"schema":"smod-fleet-spec/v1","shards":2,"placement":"replicated","replicas":3}`,
			"replica cap 3 exceeds fleet size 2"},
		{"replica cap exceeds autoscale max",
			`{"schema":"smod-fleet-spec/v1","placement":"replicated","replicas":7,` +
				`"autoscale":{"min":2,"max":6,"slo_us":60}}`, "replica cap 7 exceeds fleet size 6"},
		{"replicas without replicated",
			`{"schema":"smod-fleet-spec/v1","shards":4,"replicas":2}`, "replicas requires placement"},
		{"replicas under sticky",
			`{"schema":"smod-fleet-spec/v1","shards":4,"placement":"sticky","replicas":2}`,
			"replicas requires placement"},
		{"migrating replica cap exceeds shards",
			`{"schema":"smod-fleet-spec/v1","shards":2,"placement":"costaware","replicas":4}`,
			"replica cap 4 exceeds fleet size 2"},
		{"autoscale min > max",
			`{"schema":"smod-fleet-spec/v1","autoscale":{"min":6,"max":2,"slo_us":60}}`,
			"min 6 > max 2"},
		{"autoscale min zero",
			`{"schema":"smod-fleet-spec/v1","autoscale":{"min":0,"max":2,"slo_us":60}}`,
			"min must be >= 1"},
		{"autoscale no slo",
			`{"schema":"smod-fleet-spec/v1","autoscale":{"min":1,"max":2}}`, "slo_us must be > 0"},
		{"autoscale unknown profile",
			`{"schema":"smod-fleet-spec/v1","autoscale":{"min":1,"max":2,"slo_us":60,"profile":"quantum"}}`,
			"not in catalog"},
		{"zero backend mix",
			`{"schema":"smod-fleet-spec/v1","mix":"fast=0"}`, "bad count"},
		{"empty mix terms",
			`{"schema":"smod-fleet-spec/v1","mix":" , "}`, "empty mix"},
		{"unknown mix profile",
			`{"schema":"smod-fleet-spec/v1","mix":"warp=2"}`, "unknown profile"},
		{"negative cache",
			`{"schema":"smod-fleet-spec/v1","shards":2,"result_cache":-1}`, "result_cache"},
		{"negative session cap",
			`{"schema":"smod-fleet-spec/v1","shards":2,"session_cap":-1}`, "session_cap"},
		{"negative max actions",
			`{"schema":"smod-fleet-spec/v1","shards":2,"max_actions_per_barrier":-1}`,
			"max_actions_per_barrier"},
		{"not json", `shards: 4`, "parse"},
		{"empty", ``, "parse"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// drive runs rounds of one dominant idempotent key plus co-resident
// keys (half of them idempotent) through a strategy bound to 4 shards,
// and counts the replications and migrations it commits.
func drive(t *testing.T, p placement.Placement) (replicas, migrations int) {
	t.Helper()
	if err := p.Bind(4, nil); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 24; i++ {
			p.Route(placement.Call{Key: "hot", Idempotent: true})
		}
		for c := 1; c < 10; c++ {
			for i := 0; i < c; i++ {
				p.Route(placement.Call{Key: fmt.Sprintf("bg%d", c), Idempotent: c%2 == 0})
			}
		}
		for _, mv := range p.Rebalance() {
			if p.Commit(mv) {
				switch mv.Kind {
				case placement.MoveReplicate:
					replicas++
				case placement.MoveMigrate:
					migrations++
				}
			}
		}
	}
	return replicas, migrations
}

// TestReplicasWithMigratingPlacement pins the replicate-and-migrate
// mapping: a replica cap under heat or costaware builds a
// *placement.Replicated that both replicates and migrates, while
// "replicated" only replicates. The cap is part of placement equality,
// so editing it plans one strategy swap. (TestMarshalFixedPoint covers
// both documents' canonical form.)
func TestReplicasWithMigratingPlacement(t *testing.T) {
	for _, tc := range []struct{ doc, label string }{
		{`{"schema":"smod-fleet-spec/v1","shards":4,"placement":"costaware","replicas":2}`, "costaware/2"},
		{`{"schema":"smod-fleet-spec/v1","shards":4,"placement":"heat","replicas":2,"seed":3}`, "heat/2 seed=3"},
	} {
		fs := mustParse(t, tc.doc)
		if got := fs.PlacementLabel(); got != tc.label {
			t.Errorf("%s: PlacementLabel = %q, want %q", tc.doc, got, tc.label)
		}
		p, ok := fs.NewPlacement().(*placement.Replicated)
		if !ok {
			t.Fatalf("%s: NewPlacement built %T, want *placement.Replicated", tc.doc, fs.NewPlacement())
		}
		if reps, migs := drive(t, p); reps == 0 || migs == 0 {
			t.Errorf("%s: %d replications, %d migrations; want both > 0", tc.doc, reps, migs)
		}
	}

	only := mustParse(t, `{"schema":"smod-fleet-spec/v1","shards":4,"placement":"replicated","replicas":2}`)
	if reps, migs := drive(t, only.NewPlacement()); reps == 0 || migs != 0 {
		t.Errorf("replicated: %d replications, %d migrations; want replication only", reps, migs)
	}

	plain := mustParse(t, `{"schema":"smod-fleet-spec/v1","shards":4,"placement":"costaware"}`)
	capped := mustParse(t, `{"schema":"smod-fleet-spec/v1","shards":4,"placement":"costaware","replicas":2}`)
	if plain.PlacementEqual(capped) || capped.PlacementEqual(plain) {
		t.Error("PlacementEqual ignores a replica cap under costaware")
	}
	plan := capped.Diff(plain, inv(0, 1, 2, 3))
	if len(plan) != 1 || plan[0] != (Action{Kind: ActionSwapPlacement, Detail: "costaware/2"}) {
		t.Errorf("cap edit plan = %v, want one swap-placement costaware/2", plan)
	}
}

// TestMarshalFixedPoint: marshal -> parse -> marshal is the identity
// on canonical documents, for every accepted shape.
func TestMarshalFixedPoint(t *testing.T) {
	docs := []string{
		validSpec,
		`{"schema":"smod-fleet-spec/v1","mix":"slow=1, fast=2","placement":"costaware","seed":42}`,
		`{"schema":"smod-fleet-spec/v1","shards":4,"placement":"replicated","replicas":3,` +
			`"result_cache":512,"session_cap":64,"rewarm_budget_cycles":250000}`,
		`{"schema":"smod-fleet-spec/v1","placement":"heat",` +
			`"autoscale":{"min":2,"max":6,"slo_us":60,"profile":"turbo","down_fraction":0.4,"hold_windows":3}}`,
		`{"schema":"smod-fleet-spec/v1","shards":4,"placement":"costaware","replicas":2}`,
		`{"schema":"smod-fleet-spec/v1","shards":4,"placement":"heat","replicas":2,"seed":3}`,
	}
	for _, doc := range docs {
		fs := mustParse(t, doc)
		b1, err := fs.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		fs2, err := Parse(b1)
		if err != nil {
			t.Fatalf("Parse(Marshal): %v\n%s", err, b1)
		}
		b2, err := fs2.Marshal()
		if err != nil {
			t.Fatalf("Marshal 2: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("marshal not a fixed point:\n%s\nvs\n%s", b1, b2)
		}
	}
}

func inv(ids ...int) []ShardState {
	var out []ShardState
	for _, id := range ids {
		out = append(out, ShardState{ID: id, Profile: "fast"})
	}
	return out
}

// TestDiffSizing covers the fixed-sizing planner: grow, shrink, re-mix.
func TestDiffSizing(t *testing.T) {
	grow := mustParse(t, `{"schema":"smod-fleet-spec/v1","shards":4}`)
	plan := grow.Diff(grow, inv(0, 1))
	if len(plan) != 2 || plan[0].Kind != ActionAddShard || plan[1].Kind != ActionAddShard {
		t.Fatalf("grow plan = %v, want 2 adds", plan)
	}

	shrink := mustParse(t, `{"schema":"smod-fleet-spec/v1","shards":2}`)
	plan = shrink.Diff(shrink, inv(0, 1, 2, 3))
	if len(plan) != 2 || plan[0] != (Action{Kind: ActionDrainShard, Shard: 3}) ||
		plan[1] != (Action{Kind: ActionDrainShard, Shard: 2}) {
		t.Fatalf("shrink plan = %v, want drain 3 then 2", plan)
	}

	// Re-mix fast=4 -> fast=2,slow=2: two slow adds, two fast drains
	// (highest ids first).
	remix := mustParse(t, `{"schema":"smod-fleet-spec/v1","mix":"fast=2,slow=2"}`)
	plan = remix.Diff(remix, inv(0, 1, 2, 3))
	want := []Action{
		{Kind: ActionAddShard, Profile: "slow"},
		{Kind: ActionAddShard, Profile: "slow"},
		{Kind: ActionDrainShard, Shard: 3},
		{Kind: ActionDrainShard, Shard: 2},
	}
	if len(plan) != len(want) {
		t.Fatalf("remix plan = %v, want %v", plan, want)
	}
	for i := range want {
		if plan[i] != want[i] {
			t.Errorf("remix plan[%d] = %v, want %v", i, plan[i], want[i])
		}
	}

	// Draining shards are already gone: no double drain, and they do
	// not satisfy desired counts.
	partial := inv(0, 1, 2)
	partial[2].Draining = true
	plan = shrink.Diff(shrink, partial)
	if len(plan) != 0 {
		t.Errorf("plan over draining inventory = %v, want empty", plan)
	}
	if !shrink.Converged(partial) {
		t.Error("Converged = false with sizing satisfied modulo draining shard")
	}
}

// TestDiffControlPlane covers strategy-swap and autoscaler actions and
// the band floor/ceiling enforcement.
func TestDiffControlPlane(t *testing.T) {
	cur := mustParse(t, `{"schema":"smod-fleet-spec/v1","shards":2}`)
	swap := mustParse(t, `{"schema":"smod-fleet-spec/v1","shards":2,"placement":"costaware"}`)
	plan := swap.Diff(cur, inv(0, 1))
	if len(plan) != 1 || plan[0].Kind != ActionSwapPlacement {
		t.Fatalf("swap plan = %v, want one swap-placement", plan)
	}

	// Unknown current spec: control-plane actions always emitted.
	plan = cur.Diff(nil, inv(0, 1))
	if len(plan) != 3 || plan[0].Kind != ActionSwapPlacement ||
		plan[1].Kind != ActionSetAutoscaler || plan[2].Kind != ActionSetTenants {
		t.Fatalf("bootstrap plan = %v, want swap + set-autoscaler + set-tenants", plan)
	}

	band := mustParse(t, `{"schema":"smod-fleet-spec/v1","autoscale":{"min":3,"max":5,"slo_us":60}}`)
	plan = band.Diff(cur, inv(0, 1))
	// set-autoscaler plus one add to reach the floor.
	var adds, drains int
	for _, a := range plan {
		switch a.Kind {
		case ActionAddShard:
			adds++
		case ActionDrainShard:
			drains++
		}
	}
	if adds != 1 || drains != 0 {
		t.Errorf("band floor plan = %v, want exactly 1 add", plan)
	}
	plan = band.Diff(band, inv(0, 1, 2, 3, 4, 5, 6))
	if len(plan) != 2 || plan[0] != (Action{Kind: ActionDrainShard, Shard: 6}) ||
		plan[1] != (Action{Kind: ActionDrainShard, Shard: 5}) {
		t.Errorf("band ceiling plan = %v, want drain 6 then 5", plan)
	}
	// Inside the band the autoscaler owns sizing: no actions.
	if plan := band.Diff(band, inv(0, 1, 2, 3)); len(plan) != 0 {
		t.Errorf("in-band plan = %v, want empty", plan)
	}
}

// TestStaticDrift: cache/cap changes are reported, never planned.
func TestStaticDrift(t *testing.T) {
	cur := mustParse(t, `{"schema":"smod-fleet-spec/v1","shards":2,"result_cache":256}`)
	next := mustParse(t, `{"schema":"smod-fleet-spec/v1","shards":2,"result_cache":512,"session_cap":8}`)
	drift := next.StaticDrift(cur)
	if len(drift) != 2 {
		t.Fatalf("StaticDrift = %v, want 2 entries", drift)
	}
	if plan := next.Diff(cur, inv(0, 1)); len(plan) != 0 {
		t.Errorf("static drift produced actions: %v", plan)
	}
}

// TestParseTenants covers the QoS block: normalization to canonical
// form (fixed-point marshal), rejection of invalid classes, and the
// diff action it plans.
func TestParseTenants(t *testing.T) {
	doc := `{"schema":"smod-fleet-spec/v1","shards":2,` +
		`"tenants":{"classes":[{"name":"vic","weight":4},{"name":"agg","rate":500}]}}`
	fs := mustParse(t, doc)
	ts := fs.Tenants
	if ts == nil || len(ts.Classes) != 2 {
		t.Fatalf("tenants = %+v", ts)
	}
	// Normalized: sorted by name, defaults explicit.
	if ts.Classes[0].Name != "agg" || ts.Classes[0].Weight != 1 || ts.Classes[0].Burst != 50 {
		t.Fatalf("agg class = %+v", ts.Classes[0])
	}
	if ts.Knee == 0 || ts.Window == 0 {
		t.Fatalf("knee/window defaults not filled: %+v", ts)
	}
	b, err := fs.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := Parse(b)
	if err != nil {
		t.Fatalf("re-parse canonical form: %v", err)
	}
	b2, err := fs2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("marshal not a fixed point:\n%s\nvs\n%s", b, b2)
	}

	bad := `{"schema":"smod-fleet-spec/v1","shards":2,"tenants":{"classes":[{"name":""}]}}`
	if _, err := Parse([]byte(bad)); err == nil {
		t.Fatal("unnamed tenant class accepted")
	}

	// Diff plans a set-tenants on any tenancy change, including removal.
	plain := mustParse(t, `{"schema":"smod-fleet-spec/v1","shards":2}`)
	plan := fs.Diff(plain, inv(0, 1))
	if len(plan) != 1 || plan[0].Kind != ActionSetTenants {
		t.Fatalf("enable plan = %v, want one set-tenants", plan)
	}
	plan = plain.Diff(fs, inv(0, 1))
	if len(plan) != 1 || plan[0].Kind != ActionSetTenants || plan[0].Detail != "off" {
		t.Fatalf("disable plan = %v, want set-tenants off", plan)
	}
	if len(fs.Diff(fs, inv(0, 1))) != 0 {
		t.Fatalf("no-change plan not empty")
	}
}
