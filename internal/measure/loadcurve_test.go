package measure

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/spec"
	"repro/internal/tenant"
)

// testCurveConfig sweeps one shard from well under to well past its
// capacity (~135k incr calls/sec at ~7.4us/call service time).
func testCurveConfig(rates ...float64) LoadCurveConfig {
	return LoadCurveConfig{
		Fleet:   spec.FleetSpec{Schema: spec.SchemaV1, Shards: 1, Seed: 1},
		Clients: 4,
		Calls:   80,
		Rates:   rates,
		Kind:    Poisson,
	}
}

// TestLoadCurveFindsKnee drives the sweep across the saturation point:
// the under-loaded point must track offered load with flat latency,
// the overloaded point must saturate with blown-up latency.
func TestLoadCurveFindsKnee(t *testing.T) {
	points, err := RunFleetLoadCurve(testCurveConfig(20_000, 270_000))
	if err != nil {
		t.Fatal(err)
	}
	under, over := points[0], points[1]

	if under.Saturated {
		t.Errorf("20k/s on a ~135k/s shard reported saturated: %+v", under)
	}
	// Open loop below capacity: achieved tracks offered.
	if ratio := under.AchievedPerSec / under.OfferedPerSec; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("under-load achieved/offered = %.2f, want ~1", ratio)
	}
	if !over.Saturated {
		t.Errorf("270k/s on a ~135k/s shard not saturated: %+v", over)
	}
	// Past the knee the queue grows for the whole schedule: tail
	// latency must dwarf the under-loaded tail.
	if over.P99Micros < 4*under.P99Micros {
		t.Errorf("overload p99 %.1fus not >> under-load p99 %.1fus", over.P99Micros, under.P99Micros)
	}
	// Quantiles are ordered and histograms account for every call.
	for i, p := range points {
		if p.P50Micros > p.P95Micros || p.P95Micros > p.P99Micros || p.P99Micros > p.MaxMicros {
			t.Errorf("point %d quantiles out of order: %+v", i, p)
		}
		var total uint64
		for _, b := range p.Hist {
			total += b.Count
		}
		if total != uint64(p.Calls) {
			t.Errorf("point %d histogram total %d != calls %d", i, total, p.Calls)
		}
	}
	if k := KneeIndex(points); k != 1 {
		t.Errorf("KneeIndex = %d, want 1", k)
	}
}

// TestLoadCurveDeterministic: the same config must reproduce the curve
// exactly — quantiles, makespans, everything — across runs.
func TestLoadCurveDeterministic(t *testing.T) {
	cfg := testCurveConfig(50_000, 200_000)
	a, err := RunFleetLoadCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleetLoadCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("load curve differs across runs:\n%s\nvs\n%s", ja, jb)
	}
}

// TestLoadCurveTableAndJSON sanity-checks the renderers: the table has
// the quantile columns the acceptance criteria name, and the BENCH
// document round-trips through JSON with the knee recorded.
func TestLoadCurveTableAndJSON(t *testing.T) {
	cfg := testCurveConfig(20_000, 270_000)
	points, err := RunFleetLoadCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	table := LoadCurveTable(points)
	for _, col := range []string{"offered/s", "achieved/s", "p50(us)", "p95(us)", "p99(us)"} {
		if !strings.Contains(table, col) {
			t.Errorf("table lacks %q column:\n%s", col, table)
		}
	}
	if !strings.Contains(table, "*") {
		t.Errorf("table does not mark the knee:\n%s", table)
	}

	doc := NewBenchFleet(cfg, points, nil)
	raw, err := doc.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back BenchFleet
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("BENCH json does not round-trip: %v", err)
	}
	if back.Schema != "smod-bench-fleet/v1" {
		t.Errorf("schema = %q", back.Schema)
	}
	if back.LoadCurve == nil {
		t.Fatal("loadcurve section missing")
	}
	if len(back.LoadCurve.Points) != 2 {
		t.Errorf("points = %d, want 2", len(back.LoadCurve.Points))
	}
	if back.LoadCurve.KneeOfferedCPS != 270_000 {
		t.Errorf("knee = %v, want 270000", back.LoadCurve.KneeOfferedCPS)
	}
	if back.LoadCurve.Process != "poisson" {
		t.Errorf("process = %q", back.LoadCurve.Process)
	}

	// A throughput-only document omits the loadcurve section entirely,
	// so consumers can tell "not measured" from a degenerate run.
	rowsOnly := NewBenchFleet(LoadCurveConfig{}, nil, []ThroughputStats{{Name: "closed-loop"}})
	if rowsOnly.LoadCurve != nil {
		t.Error("throughput-only document fabricated a loadcurve section")
	}
	raw, err = rowsOnly.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "loadcurve") {
		t.Errorf("throughput-only JSON still contains loadcurve key:\n%s", raw)
	}
}

// TestLoadCurveBadConfig covers input validation, including what
// RunFleetLoadCurve refuses of its fleet spec: a replica cap the fleet
// cannot hold (the strategy would clamp it while the BENCH record named
// the larger cap), tenancy declared in the spec instead of Tenants, and
// a reference size on a fleet that does not autoscale.
func TestLoadCurveBadConfig(t *testing.T) {
	if _, err := RunFleetLoadCurve(LoadCurveConfig{Fleet: spec.FleetSpec{Schema: spec.SchemaV1},
		Clients: 1, Calls: 1, Rates: []float64{1}}); err == nil {
		t.Error("shards=0 accepted")
	}
	if _, err := RunFleetLoadCurve(testCurveConfig()); err == nil {
		t.Error("empty rate sweep accepted")
	}
	flat := testCurveConfig(10_000)
	flat.ZipfS = 0.5 // rand.NewZipf needs s > 1; we require >= 1.01
	if _, err := RunFleetLoadCurve(flat); err == nil {
		t.Error("too-flat zipf exponent accepted")
	}

	overCap := testCurveConfig(10_000)
	overCap.Fleet.Shards = 2
	overCap.Fleet.Placement = spec.PlacementCostAware
	overCap.Fleet.Replicas = 4
	if _, err := RunFleetLoadCurve(overCap); err == nil || !strings.Contains(err.Error(), "replica cap 4") {
		t.Errorf("replicas 4 on 2 shards: err = %v, want the replica cap rejected", err)
	}
	tenanted := testCurveConfig(10_000)
	tenanted.Fleet.Tenants = &tenant.Set{Classes: []tenant.Config{{Name: "gold"}}}
	if _, err := RunFleetLoadCurve(tenanted); err == nil || !strings.Contains(err.Error(), "Fleet.Tenants") {
		t.Errorf("Fleet.Tenants: err = %v, want it rejected", err)
	}
	ref := testCurveConfig(10_000)
	ref.RefShards = 4
	if _, err := RunFleetLoadCurve(ref); err == nil || !strings.Contains(err.Error(), "RefShards") {
		t.Errorf("RefShards on a fixed fleet: err = %v, want it rejected", err)
	}
}

// skewConfig is a 2-shard skewed-workload point at the given rate,
// migrating hot keys at the epoch barriers when rebalance is set.
func skewConfig(rate float64, rebalance bool) LoadCurveConfig {
	cfg := LoadCurveConfig{
		Fleet:   spec.FleetSpec{Schema: spec.SchemaV1, Shards: 2, Seed: 3},
		Clients: 12,
		Calls:   240,
		Rates:   []float64{rate},
		Kind:    Poisson,
		ZipfS:   1.3,
		Epochs:  6,
	}
	if rebalance {
		cfg.Fleet.Placement = spec.PlacementCostAware
	}
	return cfg
}

// TestSkewedCurveRebalanceRaisesCapacity is the measure-level version
// of the acceptance criterion: at an offered rate that saturates the
// static skewed fleet, enabling migration must serve the same schedule
// in less simulated time (and actually migrate something).
func TestSkewedCurveRebalanceRaisesCapacity(t *testing.T) {
	// ~135k/s per shard capacity; Zipf(1.3) over 12 keys puts roughly
	// half the traffic on the rank-0 key's shard, so 200k/s offered
	// overloads the static assignment but not a balanced one.
	const rate = 200_000
	static, err := RunFleetLoadCurve(skewConfig(rate, false))
	if err != nil {
		t.Fatal(err)
	}
	moving, err := RunFleetLoadCurve(skewConfig(rate, true))
	if err != nil {
		t.Fatal(err)
	}
	s, m := static[0], moving[0]
	if m.Migrations == 0 {
		t.Fatalf("skewed point with rebalancing migrated nothing: %+v", m)
	}
	if s.Migrations != 0 {
		t.Fatalf("static point reports migrations: %+v", s)
	}
	if m.MakespanMicros >= s.MakespanMicros {
		t.Errorf("rebalancing did not shrink the makespan: static %.1fus, rebalanced %.1fus",
			s.MakespanMicros, m.MakespanMicros)
	}
	if m.AchievedPerSec <= s.AchievedPerSec {
		t.Errorf("rebalancing did not raise achieved throughput: static %.0f/s, rebalanced %.0f/s",
			s.AchievedPerSec, m.AchievedPerSec)
	}
}

// TestSkewedCurveDeterministic: skew + epochs + migration stays
// bit-for-bit reproducible, points and counters included.
func TestSkewedCurveDeterministic(t *testing.T) {
	cfg := skewConfig(150_000, true)
	a, err := RunFleetLoadCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleetLoadCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("skewed curve differs across runs:\n%s\nvs\n%s", ja, jb)
	}
}

// TestCurveCacheHitsOnIdempotentWorkload: a small argument space plus
// the result cache produces hits and shrinks real dispatch work.
func TestCurveCacheHitsOnIdempotentWorkload(t *testing.T) {
	cfg := testCurveConfig(50_000)
	cfg.ArgsCardinality = 6
	cfg.Fleet.ResultCache = 64
	points, err := RunFleetLoadCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	if p.CacheHits == 0 {
		t.Fatalf("no cache hits on 6-value argument space: %+v", p)
	}
	if p.CacheHits+p.CacheMisses < uint64(cfg.Calls) {
		t.Errorf("cache counters %d+%d do not cover the %d idempotent calls",
			p.CacheHits, p.CacheMisses, cfg.Calls)
	}
	// The BENCH document records the cache configuration.
	doc := NewBenchFleet(cfg, points, nil)
	if doc.LoadCurve.CacheSize != 64 || doc.LoadCurve.ArgsCard != 6 {
		t.Errorf("BENCH loadcurve config not recorded: %+v", doc.LoadCurve)
	}
}

// TestChaosCurveKillDrill: a load curve run under a kill drill records
// the drill outcome per point (shard down, orphan re-warms within the
// default budget), replays bit-for-bit across runs, and the BENCH
// curve carries the drill spec and budget for the benchdiff gate.
func TestChaosCurveKillDrill(t *testing.T) {
	cfg := LoadCurveConfig{
		Fleet: spec.FleetSpec{Schema: spec.SchemaV1, Shards: 2, Seed: 5,
			Placement: spec.PlacementCostAware, Replicas: 2},
		Clients: 6,
		Calls:   60,
		Rates:   []float64{40_000},
		Kind:    Poisson,
		ZipfS:   1.5,
		Epochs:  4,
		Chaos:   "kill:0@3",
	}
	a, err := RunFleetLoadCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := a[0]
	if p.ShardsDown != 1 {
		t.Errorf("ShardsDown = %d, want 1 (drill never fired?)", p.ShardsDown)
	}
	if p.RewarmMaxCycles > chaos.DefaultRewarmBudgetCycles {
		t.Errorf("slowest re-warm %d cycles exceeds default budget %d",
			p.RewarmMaxCycles, chaos.DefaultRewarmBudgetCycles)
	}
	// Every arrival was served despite the kill (RunFleetLoadCurve fails
	// on any Err/Errno), and the whole drill replays identically.
	if p.Calls != cfg.Calls {
		t.Errorf("served %d of %d calls", p.Calls, cfg.Calls)
	}
	b, err := RunFleetLoadCurve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("chaos drill curve differs across runs:\n%s\nvs\n%s", ja, jb)
	}

	lc := NewBenchFleet(cfg, a, nil).LoadCurve
	if lc.Chaos != cfg.Chaos {
		t.Errorf("BENCH curve chaos = %q, want %q", lc.Chaos, cfg.Chaos)
	}
	if lc.RewarmBudgetCycles != chaos.DefaultRewarmBudgetCycles {
		t.Errorf("BENCH curve budget = %d, want default %d",
			lc.RewarmBudgetCycles, chaos.DefaultRewarmBudgetCycles)
	}

	// Invalid drills are rejected up front, not per point.
	bad := cfg
	bad.Chaos = "kill:7@1"
	if _, err := RunFleetLoadCurve(bad); err == nil {
		t.Error("out-of-range kill target accepted")
	}
	bad.Chaos = "explode:0@1"
	if _, err := RunFleetLoadCurve(bad); err == nil {
		t.Error("unknown fault kind accepted")
	}
}
