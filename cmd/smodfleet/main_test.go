package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/measure"
	"repro/internal/spec"
)

// TestSuiteMatchesBaseline reruns the gate suite with the parameters of
// `make bench-json` (SUITE_FLAGS in the Makefile: 2 shards, 8 clients,
// 200 calls per point, seed 1, Poisson arrivals, the default -util
// grid) and requires the committed BENCH_fleet.json byte for byte.
// Every number in it is simulated time, so any difference is a change
// in behaviour.
func TestSuiteMatchesBaseline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	err := runSuite(suiteParams{
		uniformShards: 2,
		clients:       8,
		calls:         200,
		seed:          1,
		kind:          measure.Poisson,
		utilList:      defaultUtil,
		jsonPath:      out,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("suite output differs from the committed BENCH_fleet.json; " +
			"refresh it with `make bench-json` only for an intended change")
	}
}

// TestTraceMatchesBaseline reruns the flight-recorded kill drill of
// `make trace` (TRACE_FLAGS in the Makefile: a -loadcurve on 2 shards
// with 2 replicas, 8 clients, 120 calls per point, Zipf 1.5 keys, 6
// epochs and kill:0@4, at the default seed 1, Poisson arrivals and
// -util grid) and requires the committed TRACE_fleet.json and
// TRACE_fleet.jsonl byte for byte. The exports record every barrier,
// fault and re-warm span with its simulated cycles, so any difference
// is a change in behaviour or in the trace format.
func TestTraceMatchesBaseline(t *testing.T) {
	dir := t.TempDir()
	obs, err := openObservability(filepath.Join(dir, "TRACE_fleet.json"),
		filepath.Join(dir, "TRACE_fleet.jsonl"), "", true)
	if err != nil {
		t.Fatal(err)
	}
	place, err := placementOf(false, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := measure.LoadCurveConfig{
		Fleet: spec.FleetSpec{
			Schema:             spec.SchemaV1,
			Shards:             2,
			Placement:          place,
			Replicas:           2,
			Seed:               1,
			RewarmBudgetCycles: chaos.DefaultRewarmBudgetCycles,
		},
		Clients: 8,
		Calls:   120,
		Kind:    measure.Poisson,
		ZipfS:   1.5,
		Epochs:  6,
		Chaos:   "kill:0@4",
	}
	obs.apply(&cfg)
	if err := runLoadCurve(cfg, "", defaultUtil, filepath.Join(dir, "BENCH_trace_drill.json")); err != nil {
		t.Fatal(err)
	}
	obs.export()
	for _, name := range []string{"TRACE_fleet.json", "TRACE_fleet.jsonl"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("trace export differs from the committed %s; "+
				"refresh it with `make trace` only for an intended change", name)
		}
	}
}

// TestPlacementOf pins the -rebalance/-heatonly/-replicas mapping onto
// spec placements, including the rejected -heatonly without -rebalance.
func TestPlacementOf(t *testing.T) {
	cases := []struct {
		rebalance, heatOnly bool
		replicas            int
		want                string
	}{
		{false, false, 0, spec.PlacementSticky},
		{true, false, 0, spec.PlacementCostAware},
		{true, true, 0, spec.PlacementHeat},
		{false, false, 2, spec.PlacementReplicated},
		{true, false, 2, spec.PlacementCostAware},
		{true, true, 2, spec.PlacementHeat},
	}
	for _, c := range cases {
		got, err := placementOf(c.rebalance, c.heatOnly, c.replicas)
		if err != nil || got != c.want {
			t.Errorf("placementOf(%v, %v, %d) = %q, %v; want %q",
				c.rebalance, c.heatOnly, c.replicas, got, err, c.want)
		}
	}
	for _, replicas := range []int{0, 2} {
		if got, err := placementOf(false, true, replicas); err == nil {
			t.Errorf("-heatonly without -rebalance (replicas %d) accepted as %q", replicas, got)
		}
	}
}
