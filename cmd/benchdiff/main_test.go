package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/measure"
)

// doc builds a single-curve BENCH document, as -loadcurve writes one,
// with the given per-point (p95, saturated) pairs under one fixed
// workload shape.
func doc(points ...measure.LoadPoint) *measure.BenchFleet {
	return &measure.BenchFleet{
		Schema: "smod-bench-fleet/v1",
		Curves: []*measure.BenchLoadCurve{{
			Name:   "uniform",
			Shards: 2, Clients: 8, CallsPerPoint: 200, Process: "poisson", Seed: 1,
			Points: points,
		}},
	}
}

func pt(offered, p95 float64, sat bool) measure.LoadPoint {
	return measure.LoadPoint{OfferedPerSec: offered, P95Micros: p95, Saturated: sat}
}

func TestCompareCleanPass(t *testing.T) {
	base := doc(pt(100, 10, false), pt(200, 12, false), pt(300, 90, true))
	cand := doc(pt(100, 10.5, false), pt(200, 12.1, false), pt(300, 500, true))
	if fails := compare(base, cand, 0.15, 0.5, 0.10); len(fails) != 0 {
		t.Fatalf("clean comparison failed: %v", fails)
	}
	// Post-knee p95 blowups are not gated (they measure queue growth).
}

func TestCompareKneeRegression(t *testing.T) {
	base := doc(pt(100, 10, false), pt(200, 12, false), pt(300, 90, true))
	cand := doc(pt(100, 10, false), pt(200, 80, true), pt(300, 90, true))
	fails := compare(base, cand, 0.15, 0.5, 0.10)
	if len(fails) == 0 {
		t.Fatal("earlier knee passed")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "knee regression") {
		t.Fatalf("missing knee-regression failure: %v", fails)
	}
}

func TestCompareNeverSaturatedBaseline(t *testing.T) {
	base := doc(pt(100, 10, false), pt(200, 12, false))
	cand := doc(pt(100, 10, false), pt(200, 60, true))
	if fails := compare(base, cand, 0.15, 0.5, 0.10); len(fails) == 0 {
		t.Fatal("candidate saturating an unsaturated baseline sweep passed")
	}
	// The reverse — knee disappears — is an improvement.
	if fails := compare(cand, base, 0.15, 0.5, 0.10); len(fails) != 0 {
		t.Fatalf("knee improvement flagged: %v", fails)
	}
}

func TestCompareP95Shift(t *testing.T) {
	base := doc(pt(100, 10, false), pt(200, 12, false), pt(300, 90, true))
	worse := doc(pt(100, 10, false), pt(200, 14.5, false), pt(300, 90, true)) // +20.8%
	fails := compare(base, worse, 0.15, 0.5, 0.10)
	if len(fails) == 0 {
		t.Fatal(">15% pre-knee p95 shift passed")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "p95 shift") {
		t.Fatalf("missing p95 failure: %v", fails)
	}
	within := doc(pt(100, 10.9, false), pt(200, 13, false), pt(300, 1, true)) // <=15%
	if fails := compare(base, within, 0.15, 0.5, 0.10); len(fails) != 0 {
		t.Fatalf("within-tolerance shift flagged: %v", fails)
	}
	// Large improvements are also flagged: they mean the baseline is
	// stale and should be refreshed, keeping the gate honest.
	better := doc(pt(100, 5, false), pt(200, 6, false), pt(300, 90, true))
	if fails := compare(base, better, 0.15, 0.5, 0.10); len(fails) == 0 {
		t.Fatal("halved p95 silently passed; baseline staleness undetected")
	}
}

func TestCompareShapeMismatch(t *testing.T) {
	base := doc(pt(100, 10, false))
	cand := doc(pt(100, 10, false))
	cand.Curves[0].Shards = 4
	if fails := compare(base, cand, 0.15, 0.5, 0.10); len(fails) == 0 {
		t.Fatal("shard-count mismatch passed")
	}
	cand2 := doc(pt(100, 10, false), pt(200, 11, false))
	if fails := compare(base, cand2, 0.15, 0.5, 0.10); len(fails) == 0 {
		t.Fatal("point-count mismatch passed")
	}
}

// multiDoc builds a suite-style document with named curves.
func multiDoc(curves map[string][]measure.LoadPoint) *measure.BenchFleet {
	d := &measure.BenchFleet{Schema: "smod-bench-fleet/v1"}
	for _, name := range []string{"uniform", "skew-rebalance", "mix-costaware", "mix-heatonly"} {
		pts, ok := curves[name]
		if !ok {
			continue
		}
		lc := &measure.BenchLoadCurve{
			Name: name, Shards: 4, Clients: 16, CallsPerPoint: 200,
			Process: "poisson", Seed: 1, Points: pts,
		}
		if name != "uniform" {
			lc.ZipfS, lc.Epochs, lc.Rebalance = 1.2, 8, true
		}
		if strings.HasPrefix(name, "mix-") {
			lc.Mix = "fast=2,slow=2"
			lc.HeatOnly = name == "mix-heatonly"
		}
		d.Curves = append(d.Curves, lc)
	}
	return d
}

// TestCompareMultiCurve: every named curve is gated — a regression in
// the skewed curve alone must fail even when the uniform curve passes.
func TestCompareMultiCurve(t *testing.T) {
	base := multiDoc(map[string][]measure.LoadPoint{
		"uniform":        {pt(100, 10, false), pt(300, 90, true)},
		"skew-rebalance": {pt(100, 20, false), pt(300, 120, true)},
		"mix-costaware":  {pt(100, 15, false), pt(300, 100, true)},
		"mix-heatonly":   {pt(100, 40, true), pt(300, 200, true)},
	})
	clean := multiDoc(map[string][]measure.LoadPoint{
		"uniform":        {pt(100, 10.2, false), pt(300, 95, true)},
		"skew-rebalance": {pt(100, 20.4, false), pt(300, 130, true)},
		"mix-costaware":  {pt(100, 15.1, false), pt(300, 99, true)},
		"mix-heatonly":   {pt(100, 41, true), pt(300, 210, true)},
	})
	if fails := compare(base, clean, 0.15, 0.5, 0.10); len(fails) != 0 {
		t.Fatalf("clean multi-curve comparison failed: %v", fails)
	}
	// Skewed curve saturates a point earlier: must fail even though the
	// uniform curve is untouched.
	skewReg := multiDoc(map[string][]measure.LoadPoint{
		"uniform":        {pt(100, 10, false), pt(300, 90, true)},
		"skew-rebalance": {pt(100, 60, true), pt(300, 120, true)},
		"mix-costaware":  {pt(100, 15, false), pt(300, 100, true)},
		"mix-heatonly":   {pt(100, 40, true), pt(300, 200, true)},
	})
	fails := compare(base, skewReg, 0.15, 0.5, 0.10)
	if len(fails) == 0 {
		t.Fatal("skew-rebalance knee regression passed")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "skew-rebalance") {
		t.Fatalf("failure not attributed to the skewed curve: %v", fails)
	}
	// Dropping the mixed curve from the candidate must fail.
	lost := multiDoc(map[string][]measure.LoadPoint{
		"uniform":        {pt(100, 10, false), pt(300, 90, true)},
		"skew-rebalance": {pt(100, 20, false), pt(300, 120, true)},
	})
	if fails := compare(base, lost, 0.15, 0.5, 0.10); len(fails) < 2 {
		t.Fatalf("lost mixed curves not flagged: %v", fails)
	}
	// A single -loadcurve baseline gates against the suite's
	// same-shape "uniform" curve by name.
	single := multiDoc(map[string][]measure.LoadPoint{
		"uniform": {pt(100, 10, false), pt(300, 90, true)},
	})
	if fails := compare(single, clean, 0.15, 0.5, 0.10); len(fails) != 0 {
		t.Fatalf("single-curve baseline vs suite candidate failed: %v", fails)
	}
}

func TestCompareMissingCurve(t *testing.T) {
	base := doc(pt(100, 10, false))
	empty := &measure.BenchFleet{Schema: "smod-bench-fleet/v1"}
	if fails := compare(base, empty, 0.15, 0.5, 0.10); len(fails) == 0 {
		t.Fatal("candidate without a load curve passed")
	}
	// First-ever baseline: accept the candidate.
	if fails := compare(empty, base, 0.15, 0.5, 0.10); len(fails) != 0 {
		t.Fatalf("first candidate rejected: %v", fails)
	}
}

// repDoc builds a candidate document carrying the dominant-key
// replication pair (identical rate grids) plus optionally the
// skew-rebalance curve.
func repDoc(repPts, domPts, rebPts []measure.LoadPoint) *measure.BenchFleet {
	d := &measure.BenchFleet{Schema: "smod-bench-fleet/v1"}
	add := func(name string, pts []measure.LoadPoint, replicas int) {
		if pts == nil {
			return
		}
		lc := &measure.BenchLoadCurve{
			Name: name, Shards: 4, Clients: 8, CallsPerPoint: 200,
			Process: "poisson", Seed: 1, ZipfS: 1.5, Epochs: 8, Rebalance: true,
			Replicas: replicas, Points: pts,
			KneeIndex: measure.KneeIndex(pts),
		}
		if lc.KneeIndex >= 0 {
			lc.KneeOfferedCPS = pts[lc.KneeIndex].OfferedPerSec
		}
		if name == "skew-rebalance" {
			lc.ZipfS = 1.2
		}
		d.Curves = append(d.Curves, lc)
	}
	add("skew-replicated", repPts, 4)
	add("skew-dominant", domPts, 0)
	add("skew-rebalance", rebPts, 0)
	return d
}

// TestReplicationInvariant: inside one candidate document the
// replicated curve must strictly beat the migration-only dominant-key
// curve, and must not knee below the skew-rebalance curve.
func TestReplicationInvariant(t *testing.T) {
	// Clean: replicated knees one grid step later than dominant and at
	// a higher offered rate than skew-rebalance.
	clean := repDoc(
		[]measure.LoadPoint{pt(100, 10, false), pt(200, 12, false), pt(300, 90, true)},
		[]measure.LoadPoint{pt(100, 11, false), pt(200, 80, true), pt(300, 120, true)},
		[]measure.LoadPoint{pt(100, 9, false), pt(200, 70, true), pt(300, 100, true)},
	)
	if fails := replicationInvariant(clean.Curves); len(fails) != 0 {
		t.Fatalf("clean replication pair flagged: %v", fails)
	}
	// Tie: replicated saturating at the same index as migration-only
	// means replication bought nothing — fail.
	tie := repDoc(
		[]measure.LoadPoint{pt(100, 10, false), pt(200, 85, true), pt(300, 90, true)},
		[]measure.LoadPoint{pt(100, 11, false), pt(200, 80, true), pt(300, 120, true)},
		nil,
	)
	if fails := replicationInvariant(tie.Curves); len(fails) == 0 {
		t.Fatal("replicated == migration-only knee passed")
	}
	// Replicated never saturating always passes.
	open := repDoc(
		[]measure.LoadPoint{pt(100, 10, false), pt(200, 12, false), pt(300, 13, false)},
		[]measure.LoadPoint{pt(100, 11, false), pt(200, 80, true), pt(300, 120, true)},
		nil,
	)
	if fails := replicationInvariant(open.Curves); len(fails) != 0 {
		t.Fatalf("unsaturated replicated curve flagged: %v", fails)
	}
	// Below the skew-rebalance knee's offered rate: fail (the dominant
	// pair itself is clean — replicated knees a grid step later).
	below := repDoc(
		[]measure.LoadPoint{pt(100, 10, false), pt(200, 12, false), pt(300, 90, true)},
		[]measure.LoadPoint{pt(100, 11, false), pt(200, 80, true), pt(300, 120, true)},
		[]measure.LoadPoint{pt(200, 9, false), pt(400, 95, true), pt(600, 200, true)},
	)
	fails := replicationInvariant(below.Curves)
	if len(fails) == 0 {
		t.Fatal("replicated knee below skew-rebalance knee passed")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "skew-rebalance") {
		t.Fatalf("failure not attributed to the rebalance comparison: %v", fails)
	}
	// The dominant pair must share one rate grid; diverged sweeps are
	// incomparable, not silently index-compared.
	grids := repDoc(
		[]measure.LoadPoint{pt(100, 10, false), pt(200, 12, false), pt(300, 90, true)},
		[]measure.LoadPoint{pt(100, 11, false), pt(150, 80, true), pt(300, 120, true)},
		nil,
	)
	fails = replicationInvariant(grids.Curves)
	if len(fails) != 1 || !strings.Contains(fails[0], "incomparable") {
		t.Fatalf("diverged rate grids not rejected as incomparable: %v", fails)
	}
	// Documents without the replicated curve are untouched.
	if fails := replicationInvariant(repDoc(nil, nil, nil).Curves); len(fails) != 0 {
		t.Fatalf("document without replication pair flagged: %v", fails)
	}
}

// TestCompareReplicasShape: a replica-count change makes curves
// incomparable, like any other workload-shape change.
func TestCompareReplicasShape(t *testing.T) {
	base := doc(pt(100, 10, false))
	cand := doc(pt(100, 10, false))
	base.Curves[0].Replicas = 4
	cand.Curves[0].Replicas = 2
	if fails := compare(base, cand, 0.15, 0.5, 0.10); len(fails) == 0 {
		t.Fatal("replica-count shape change passed")
	}
}

// chaosDoc builds a candidate document with the chaos-kill drill curve
// next to its healthy skew-replicated twin on one shared rate grid.
func chaosDoc(killPts, healthyPts []measure.LoadPoint, budget uint64) *measure.BenchFleet {
	d := &measure.BenchFleet{Schema: "smod-bench-fleet/v1"}
	add := func(name, drill string, pts []measure.LoadPoint) {
		if pts == nil {
			return
		}
		lc := &measure.BenchLoadCurve{
			Name: name, Shards: 4, Clients: 8, CallsPerPoint: 200,
			Process: "poisson", Seed: 1, ZipfS: 1.5, Epochs: 8, Rebalance: true,
			Replicas: 4, Chaos: drill, Points: pts,
			KneeIndex: measure.KneeIndex(pts),
		}
		if drill != "" {
			lc.RewarmBudgetCycles = budget
		}
		d.Curves = append(d.Curves, lc)
	}
	add("skew-replicated", "", healthyPts)
	add("chaos-kill", "kill:0@5", killPts)
	return d
}

// killPt is a chaos-kill drill point: one shard down, re-warms within
// (or past) the declared budget.
func killPt(offered float64, sat bool, rewarmMax uint64) measure.LoadPoint {
	p := pt(offered, 20, sat)
	p.ShardsDown = 1
	p.Rewarms = 4
	p.RewarmMaxCycles = rewarmMax
	return p
}

// TestAvailabilityInvariant: the kill-drill curve must keep its knee
// at or above the floor fraction of the healthy replicated knee, every
// re-warm must fit the declared budget, and the drill must actually
// have fired at every point.
func TestAvailabilityInvariant(t *testing.T) {
	healthy := []measure.LoadPoint{pt(100, 10, false), pt(200, 12, false), pt(300, 90, true)}

	// Clean: kill knee one step earlier than healthy (200 >= 0.5*300).
	clean := chaosDoc(
		[]measure.LoadPoint{killPt(100, false, 30000), killPt(200, true, 30000), killPt(300, true, 30000)},
		healthy, 250000)
	if fails := availabilityInvariant(clean.Curves, 0.5); len(fails) != 0 {
		t.Fatalf("clean kill drill flagged: %v", fails)
	}

	// Knee below the floor: 100 < 0.5*300.
	low := chaosDoc(
		[]measure.LoadPoint{killPt(100, true, 30000), killPt(200, true, 30000), killPt(300, true, 30000)},
		healthy, 250000)
	fails := availabilityInvariant(low.Curves, 0.5)
	if len(fails) == 0 {
		t.Fatal("kill knee below the availability floor passed")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "below") {
		t.Fatalf("failure not attributed to the floor: %v", fails)
	}
	// A lower floor admits the same document.
	if fails := availabilityInvariant(low.Curves, 0.3); len(fails) != 0 {
		t.Fatalf("floor flag not honored: %v", fails)
	}

	// Re-warm past the declared budget fails, wherever the knee sits.
	slow := chaosDoc(
		[]measure.LoadPoint{killPt(100, false, 30000), killPt(200, false, 400000), killPt(300, true, 30000)},
		healthy, 250000)
	fails = availabilityInvariant(slow.Curves, 0.5)
	if len(fails) == 0 {
		t.Fatal("re-warm past the declared budget passed")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "budget") {
		t.Fatalf("failure not attributed to the budget: %v", fails)
	}

	// A kill drill that never fired (shards_down 0 on some point) is a
	// silent no-op measurement, not availability — fail.
	dud := chaosDoc(
		[]measure.LoadPoint{killPt(100, false, 30000), pt(200, 12, false), killPt(300, true, 30000)},
		healthy, 250000)
	fails = availabilityInvariant(dud.Curves, 0.5)
	if len(fails) == 0 {
		t.Fatal("kill drill that never fired passed")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "never fired") {
		t.Fatalf("failure not attributed to the dud drill: %v", fails)
	}

	// The drill never saturating is the best case — passes.
	open := chaosDoc(
		[]measure.LoadPoint{killPt(100, false, 30000), killPt(200, false, 30000), killPt(300, false, 30000)},
		healthy, 250000)
	if fails := availabilityInvariant(open.Curves, 0.5); len(fails) != 0 {
		t.Fatalf("unsaturated kill drill flagged: %v", fails)
	}

	// Diverged rate grids are incomparable, not index-compared.
	grids := chaosDoc(
		[]measure.LoadPoint{killPt(100, false, 30000), killPt(150, true, 30000), killPt(300, true, 30000)},
		healthy, 250000)
	fails = availabilityInvariant(grids.Curves, 0.5)
	if len(fails) != 1 || !strings.Contains(fails[0], "incomparable") {
		t.Fatalf("diverged rate grids not rejected: %v", fails)
	}

	// Documents without chaos curves are untouched.
	if fails := availabilityInvariant(repDoc(nil, nil, nil).Curves, 0.5); len(fails) != 0 {
		t.Fatalf("chaos-free document flagged: %v", fails)
	}
}

// TestCompareChaosShape: a drill or budget change makes curves
// incomparable, like any other workload-shape change.
func TestCompareChaosShape(t *testing.T) {
	base := doc(pt(100, 10, false))
	cand := doc(pt(100, 10, false))
	base.Curves[0].Chaos = "kill:0@5"
	base.Curves[0].RewarmBudgetCycles = 250000
	cand.Curves[0].Chaos = "kill:1@5"
	cand.Curves[0].RewarmBudgetCycles = 250000
	if fails := compare(base, cand, 0.15, 0.5, 0.10); len(fails) == 0 {
		t.Fatal("chaos drill change passed")
	}
	cand.Curves[0].Chaos = "kill:0@5"
	cand.Curves[0].RewarmBudgetCycles = 100000
	if fails := compare(base, cand, 0.15, 0.5, 0.10); len(fails) == 0 {
		t.Fatal("re-warm budget change passed")
	}
}

// TestCompareVerdictRows: the verdict table carries one row per curve
// and per invariant, on passing runs too.
func TestCompareVerdictRows(t *testing.T) {
	base := multiDoc(map[string][]measure.LoadPoint{
		"uniform":        {pt(100, 10, false), pt(300, 90, true)},
		"skew-rebalance": {pt(100, 20, false), pt(300, 120, true)},
	})
	cand := multiDoc(map[string][]measure.LoadPoint{
		"uniform":        {pt(100, 10, false), pt(300, 90, true)},
		"skew-rebalance": {pt(100, 20, false), pt(300, 120, true)},
	})
	fails, rows := compareVerdicts(base, cand, 0.15, 0.5, 0.10)
	if len(fails) != 0 {
		t.Fatalf("clean pair failed: %v", fails)
	}
	// 2 curves + 4 invariant rows.
	if len(rows) != 6 {
		t.Fatalf("got %d verdict rows, want 6: %+v", len(rows), rows)
	}
	status := map[string]string{}
	for _, r := range rows {
		status[r.name] = r.status
	}
	for _, name := range []string{"uniform", "skew-rebalance"} {
		if status[name] != "pass" {
			t.Fatalf("curve %s status = %q, want pass", name, status[name])
		}
	}
	// No replicated/chaos/elastic/qos curves in the candidate: invariants n/a.
	for _, name := range []string{"replication invariant", "availability invariant", "elastic invariant", "isolation invariant"} {
		if status[name] != "n/a" {
			t.Fatalf("%s status = %q, want n/a", name, status[name])
		}
	}
	// A pass row summarizes the knee and the worst pre-knee p95 shift.
	for _, r := range rows {
		if r.status == "pass" && !strings.Contains(r.detail, "knee") {
			t.Fatalf("pass row %q lacks knee detail: %q", r.name, r.detail)
		}
	}
}

// qosDoc builds a document carrying the qos-solo/qos-isolation pair:
// per-point victim p99s for each curve plus the isolation curve's
// per-point aggressor shed counts.
func qosDoc(soloP99, isoP99 []float64, aggShed []int) *measure.BenchFleet {
	mk := func(name string, boost float64, p99s []float64, sheds []int) *measure.BenchLoadCurve {
		lc := &measure.BenchLoadCurve{
			Name: name, Shards: 2, Clients: 8, CallsPerPoint: 200, Process: "poisson", Seed: 1,
			Tenants: []measure.TenantLoad{
				{Name: "victim", Weight: 64, Clients: 4, Boost: 1},
				{Name: "aggressor", Weight: 1, Clients: 4, Boost: boost},
			},
			TenantKnee: 64, TenantWindow: 1,
		}
		for i, p := range p99s {
			shed := 0
			if sheds != nil {
				shed = sheds[i]
			}
			lc.Points = append(lc.Points, measure.LoadPoint{
				OfferedPerSec: float64(100 * (i + 1)),
				P99Micros:     p,
				Tenants: map[string]measure.TenantPoint{
					"victim":    {Weight: 64, Boost: 1, P99Micros: p},
					"aggressor": {Weight: 1, Boost: boost, Shed: shed},
				},
			})
		}
		return lc
	}
	d := &measure.BenchFleet{Schema: "smod-bench-fleet/v1"}
	d.Curves = append(d.Curves,
		mk("qos-solo", 0, soloP99, nil),
		mk("qos-isolation", 6, isoP99, aggShed))
	return d
}

// TestIsolationInvariant: the qos pair is gated over the top half of
// the shared grid — victim p99 within tolerance of solo, aggressor
// actually shed — and documents without the pair pass untouched.
func TestIsolationInvariant(t *testing.T) {
	// Clean: gated indices 2,3 hold 1.05x/1.07x; low-rate inflation at
	// indices 0,1 sits outside the overload regime and is not gated.
	clean := qosDoc([]float64{10, 20, 40, 60}, []float64{15, 30, 42, 64}, []int{0, 0, 50, 80})
	if fails := isolationInvariant(clean.Curves, 0.10); len(fails) != 0 {
		t.Fatalf("clean qos pair failed: %v", fails)
	}
	// A victim p99 breach in the top half fails.
	breach := qosDoc([]float64{10, 20, 40, 60}, []float64{10, 20, 60, 64}, []int{0, 0, 50, 80})
	fails := isolationInvariant(breach.Curves, 0.10)
	if len(fails) == 0 {
		t.Fatal("victim p99 breach passed")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "isolation invariant") {
		t.Fatalf("missing isolation failure: %v", fails)
	}
	// No sheds at the overloaded rates: the drill never pushed past the
	// knee and proves nothing.
	noshed := qosDoc([]float64{10, 20, 40, 60}, []float64{10, 21, 42, 63}, []int{0, 0, 0, 0})
	if fails := isolationInvariant(noshed.Curves, 0.10); len(fails) == 0 {
		t.Fatal("shed-free drill passed")
	}
	// Divergent rate grids are incomparable, not silently skipped.
	skewed := qosDoc([]float64{10, 20, 40, 60}, []float64{10, 21, 42, 63}, []int{0, 0, 50, 80})
	skewed.Curves[1].Points[3].OfferedPerSec = 999
	if fails := isolationInvariant(skewed.Curves, 0.10); len(fails) == 0 {
		t.Fatal("divergent rate grids passed")
	}
	// Documents without the pair pass untouched.
	if fails := isolationInvariant(doc(pt(100, 10, false)).Curves, 0.10); len(fails) != 0 {
		t.Fatalf("pairless document failed: %v", fails)
	}
}

// TestCompareVerdictRowsFailAndLost: failing and missing curves are
// marked in the table.
func TestCompareVerdictRowsFailAndLost(t *testing.T) {
	base := multiDoc(map[string][]measure.LoadPoint{
		"uniform":        {pt(100, 10, false), pt(300, 90, true)},
		"skew-rebalance": {pt(100, 20, false), pt(300, 120, true)},
	})
	cand := multiDoc(map[string][]measure.LoadPoint{
		// p95 doubles pre-knee: uniform fails; skew-rebalance is lost.
		"uniform": {pt(100, 20, false), pt(300, 90, true)},
	})
	fails, rows := compareVerdicts(base, cand, 0.15, 0.5, 0.10)
	if len(fails) == 0 {
		t.Fatal("regressed pair passed")
	}
	status := map[string]string{}
	for _, r := range rows {
		status[r.name] = r.status
	}
	if status["uniform"] != "FAIL" {
		t.Fatalf("uniform status = %q, want FAIL", status["uniform"])
	}
	if status["skew-rebalance"] != "FAIL" {
		t.Fatalf("lost curve status = %q, want FAIL", status["skew-rebalance"])
	}
}

// TestReadBenchStrict: readBench accepts the committed suite baseline
// and refuses a document in the legacy single-curve layout, naming the
// field, rather than reading it as a baseline without curves (which
// would pass any candidate as the first). Like json.Unmarshal, it also
// refuses data after the document.
func TestReadBenchStrict(t *testing.T) {
	base, err := readBench(filepath.Join("..", "..", "BENCH_fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Curves) != 11 {
		t.Errorf("committed baseline has %d curves, want 11", len(base.Curves))
	}
	legacy := filepath.Join(t.TempDir(), "legacy.json")
	raw := `{"schema": "smod-bench-fleet/v1", "loadcurve": {"shards": 2, "points": []}}`
	if err := os.WriteFile(legacy, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = readBench(legacy)
	if err == nil || !strings.Contains(err.Error(), `"loadcurve"`) {
		t.Fatalf("legacy layout: readBench err = %v, want one naming \"loadcurve\"", err)
	}
	trailing := filepath.Join(t.TempDir(), "trailing.json")
	if err := os.WriteFile(trailing, []byte(`{"schema": "smod-bench-fleet/v1"} {}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBench(trailing); err == nil {
		t.Fatal("readBench accepted data after the document")
	}
}
