// Command benchdiff compares two BENCH_fleet.json documents and fails
// on a load-curve performance regression, the gate the CI bench job
// runs against the committed baseline. All BENCH numbers are
// simulated-time and the whole pipeline is deterministic, so any
// difference is a real behavioural change in the code, not runner
// noise — which is what makes exact gating feasible at all.
//
// Documents may carry several named curves (the bench suite records
// uniform, skew-rebalance, and the mixed-fleet cost-aware/heat-only
// pair); every curve present in the baseline is gated against the
// same-named candidate curve, so the skewed and mixed sweeps are held
// to the same standard as the uniform one. For each matched curve, a
// regression is:
//
//   - a knee-index regression: the sweep saturates at an earlier
//     offered-load index than the baseline (capacity shrank);
//   - a p95 latency shift beyond -p95tol (default 15%) at any offered
//     rate the baseline served below saturation. The gate is
//     deliberately symmetric: a large p95 *improvement* fails too,
//     because it means the committed baseline is stale — refresh it
//     with `make bench-json` and commit the result.
//
// A knee that moves later (or disappears) passes with a note; a curve
// the candidate dropped fails; a curve the candidate added is noted
// and accepted as its first baseline.
//
// Every run — passing or failing — ends with a per-curve verdict
// table: one pass/FAIL/new row per curve (knee movement and worst
// pre-knee p95 shift) plus one row per cross-curve invariant, so a
// green CI log still records what each gate measured.
//
// On top of the per-curve gates, cross-curve invariants are enforced
// inside the candidate document. When it carries the dominant-key
// replication pair ("skew-replicated" and its migration-only twin
// "skew-dominant", swept over identical rates), the replicated knee
// must sit strictly later — hot-key replication must beat migration
// alone on the single-dominant-key sweep, or the strategy has
// regressed no matter what the baseline says. When the
// "skew-rebalance" curve is present too, the replicated knee's offered
// rate must also be at or above that curve's knee rate.
//
// When the candidate carries chaos-drill curves (a non-empty "chaos"
// field), two more gates apply: no point may report a re-warm slower
// than the curve's declared rewarm_budget_cycles, and a kill drill
// must actually have fired (shards_down > 0 at every point). For the
// suite's "chaos-kill" curve specifically — the skew-replicated fleet
// losing one shard mid-point — the availability floor holds: its knee
// offered rate must stay at or above -availfloor (default 0.5) of the
// healthy "skew-replicated" knee on the shared rate grid. A fleet of 4
// that loses a shard and falls below half its healthy capacity has
// broken failover, whatever the baseline says.
//
// When the candidate carries SLO-autoscaled curves (a positive
// "slo_us" field), the elastic gates apply: no point may record a
// resize warm-in slower than the curve's declared rewarm_budget_cycles,
// and every point's mean live shard count must stay inside
// [auto_min, auto_max]. For the suite's "elastic-slo"/"elastic-fixed"
// pair (shared rate grid), the autoscaled fleet must hold the p99 SLO
// at a strictly higher offered rate than the fixed fleet does, while
// averaging no more shards across the sweep than the fixed fleet runs.
//
// When the candidate carries the multi-tenant QoS pair ("qos-solo" and
// "qos-isolation", shared rate grid, identical victim arrival streams),
// the isolation invariant applies: over the top half of the grid — the
// overload regime where the aggressor floods at several times its fair
// share — every victim class's p99 may inflate by at most -isotol
// (default 10%) relative to its solo baseline, and the aggressor must
// actually have been shed there.
//
// Usage:
//
//	benchdiff -old BENCH_fleet.json -new BENCH_new.json
//	benchdiff -old BENCH_fleet.json -new BENCH_new.json -p95tol 0.10 -availfloor 0.6
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/chaos"
	"repro/internal/measure"
)

func main() {
	var (
		oldPath    = flag.String("old", "BENCH_fleet.json", "baseline BENCH document (committed)")
		newPath    = flag.String("new", "BENCH_new.json", "candidate BENCH document (fresh run)")
		p95Tol     = flag.Float64("p95tol", 0.15, "allowed relative p95 shift at pre-knee points")
		availFloor = flag.Float64("availfloor", 0.5, "minimum chaos-kill knee rate as a fraction of the healthy skew-replicated knee")
		isoTol     = flag.Float64("isotol", 0.10, "allowed relative victim p99 inflation between the qos-solo/qos-isolation pair at overloaded rates")
	)
	flag.Parse()

	oldDoc, err := readBench(*oldPath)
	if err != nil {
		fatal(err)
	}
	newDoc, err := readBench(*newPath)
	if err != nil {
		fatal(err)
	}
	failures := compare(oldDoc, newDoc, *p95Tol, *availFloor, *isoTol)
	if len(failures) > 0 {
		fmt.Println("\nBENCH REGRESSION:")
		for _, f := range failures {
			fmt.Printf("  - %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("\nbenchdiff: no regression against baseline")
}

// verdictRow is one line of the final per-curve verdict table, printed
// on success and failure alike so a green run still shows what each
// gate measured.
type verdictRow struct {
	name   string
	status string // "pass", "FAIL", "new", or "n/a"
	detail string
}

// verdictTable renders the verdict rows.
func verdictTable(rows []verdictRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n== verdicts ==\n%-22s %-5s %s\n", "gate", "", "detail")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-5s %s\n", r.name, r.status, r.detail)
	}
	return b.String()
}

// invariantRow summarizes one cross-curve invariant for the table.
func invariantRow(name string, applicable bool, fails []string) verdictRow {
	switch {
	case !applicable:
		return verdictRow{name, "n/a", "no gated curves in candidate"}
	case len(fails) > 0:
		return verdictRow{name, "FAIL", fmt.Sprintf("%d failure(s); see failure list", len(fails))}
	}
	return verdictRow{name, "pass", "invariant holds"}
}

// readBench loads and validates one document. Decoding is strict: a
// field the document type does not have — a legacy single-curve
// "loadcurve" section, say — fails the read instead of decoding as a
// curve-less baseline that any candidate would pass.
func readBench(path string) (*measure.BenchFleet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc measure.BenchFleet
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%s: data after the document", path)
	}
	if doc.Schema != "smod-bench-fleet/v1" {
		return nil, fmt.Errorf("%s: unexpected schema %q", path, doc.Schema)
	}
	return &doc, nil
}

// compare gates every baseline curve against its same-named candidate,
// prints the per-curve verdict table, and returns the list of
// regressions (empty = pass).
func compare(oldDoc, newDoc *measure.BenchFleet, p95Tol, availFloor, isoTol float64) []string {
	fails, rows := compareVerdicts(oldDoc, newDoc, p95Tol, availFloor, isoTol)
	if len(rows) > 0 {
		fmt.Print(verdictTable(rows))
	}
	return fails
}

// compareVerdicts runs every gate and returns the failures alongside
// one verdict row per curve and cross-curve invariant.
func compareVerdicts(oldDoc, newDoc *measure.BenchFleet, p95Tol, availFloor, isoTol float64) ([]string, []verdictRow) {
	var fails []string
	var rows []verdictRow
	oldCurves, newCurves := oldDoc.Curves, newDoc.Curves
	switch {
	case len(oldCurves) == 0 && len(newCurves) == 0:
		fails = append(fails, "neither document has a load curve; nothing to gate")
		return fails, nil
	case len(oldCurves) == 0:
		fmt.Println("baseline has no load curve; candidate accepted as the first")
		return nil, nil
	}
	newByName := map[string]*measure.BenchLoadCurve{}
	for _, c := range newCurves {
		newByName[c.Name] = c
	}
	matched := map[string]bool{}
	for _, oc := range oldCurves {
		nc, ok := newByName[oc.Name]
		if !ok {
			fails = append(fails, fmt.Sprintf("candidate lost curve %q", oc.Name))
			rows = append(rows, verdictRow{oc.Name, "FAIL", "curve missing from candidate"})
			continue
		}
		matched[oc.Name] = true
		fmt.Printf("\n== curve %q ==\n", oc.Name)
		curveFails, detail := compareCurve(oc, nc, p95Tol)
		fails = append(fails, curveFails...)
		if len(curveFails) > 0 {
			rows = append(rows, verdictRow{oc.Name, "FAIL",
				fmt.Sprintf("%d failure(s); see failure list", len(curveFails))})
		} else {
			rows = append(rows, verdictRow{oc.Name, "pass", detail})
		}
	}
	for _, nc := range newCurves {
		if !matched[nc.Name] {
			fmt.Printf("note: new curve %q has no baseline; accepted as the first\n", nc.Name)
			rows = append(rows, verdictRow{nc.Name, "new", "no baseline; accepted as the first"})
		}
	}
	repFails := replicationInvariant(newCurves)
	availFails := availabilityInvariant(newCurves, availFloor)
	elasticFails := elasticInvariant(newCurves)
	isoFails := isolationInvariant(newCurves, isoTol)
	fails = append(fails, repFails...)
	fails = append(fails, availFails...)
	fails = append(fails, elasticFails...)
	fails = append(fails, isoFails...)
	hasChaos, hasElastic := false, false
	for _, c := range newCurves {
		hasChaos = hasChaos || c.Chaos != ""
		hasElastic = hasElastic || c.SLOMicros > 0
	}
	rows = append(rows,
		invariantRow("replication invariant", newByName["skew-replicated"] != nil, repFails),
		invariantRow("availability invariant", hasChaos, availFails),
		invariantRow("elastic invariant", hasElastic, elasticFails),
		invariantRow("isolation invariant",
			newByName["qos-isolation"] != nil && newByName["qos-solo"] != nil, isoFails))
	return fails, rows
}

// isolationInvariant gates the candidate's multi-tenant QoS pair: the
// "qos-solo" and "qos-isolation" curves sweep one shared nominal rate
// grid, with every class whose declaration (clients, boost) is
// identical across the pair a *victim* — its arrival stream is
// bit-identical in both curves — and every class whose boost grew an
// *aggressor*. Over the top half of the grid (the overload regime the
// pair is built to probe), the victim classes' p99 may inflate by at
// most isoTol relative to solo, and the aggressors must actually have
// been shed there — a drill in which nothing was refused never pushed
// past the knee and gates nothing. Documents without the pair pass
// untouched.
func isolationInvariant(curves []*measure.BenchLoadCurve, isoTol float64) []string {
	byName := map[string]*measure.BenchLoadCurve{}
	for _, c := range curves {
		byName[c.Name] = c
	}
	iso, solo := byName["qos-isolation"], byName["qos-solo"]
	if iso == nil || solo == nil {
		return nil
	}
	if !sameRates(iso.Points, solo.Points) {
		return []string{
			"isolation invariant: qos-isolation and qos-solo were swept over different rate grids; pair incomparable"}
	}
	soloTL := map[string]measure.TenantLoad{}
	for _, tl := range solo.Tenants {
		soloTL[tl.Name] = tl
	}
	var victims, aggressors []string
	for _, tl := range iso.Tenants {
		st, ok := soloTL[tl.Name]
		if !ok {
			continue
		}
		switch {
		case st.Clients == tl.Clients && st.Boost == tl.Boost && tl.Boost > 0:
			victims = append(victims, tl.Name)
		case tl.Boost > st.Boost:
			aggressors = append(aggressors, tl.Name)
		}
	}
	if len(victims) == 0 || len(aggressors) == 0 {
		return []string{
			"isolation invariant: qos pair lacks a shared-stream victim class and a boosted aggressor class"}
	}
	var fails []string
	from := len(iso.Points) / 2
	sheds, worst := 0, 0.0
	for i := from; i < len(iso.Points); i++ {
		sp, ip := solo.Points[i], iso.Points[i]
		for _, v := range victims {
			sv, iv := sp.Tenants[v], ip.Tenants[v]
			if sv.P99Micros <= 0 {
				fails = append(fails, fmt.Sprintf(
					"isolation invariant: qos-solo point %d (offered %.0f/s): victim %q has no p99 baseline",
					i, sp.OfferedPerSec, v))
				continue
			}
			ratio := iv.P99Micros / sv.P99Micros
			if ratio > worst {
				worst = ratio
			}
			if ratio > 1+isoTol {
				fails = append(fails, fmt.Sprintf(
					"isolation invariant: point %d (offered %.0f/s): victim %q p99 %.1fus under aggression vs %.1fus solo (%.2fx, tolerance %.2fx)",
					i, sp.OfferedPerSec, v, iv.P99Micros, sv.P99Micros, ratio, 1+isoTol))
			}
		}
		for _, a := range aggressors {
			sheds += ip.Tenants[a].Shed
		}
	}
	fmt.Printf("\n== isolation invariant ==\nvictim p99 inflation over the top %d of %d shared rates: worst %.2fx (tolerance %.2fx); %d aggressor call(s) shed there\n",
		len(iso.Points)-from, len(iso.Points), worst, 1+isoTol, sheds)
	if sheds == 0 {
		fails = append(fails,
			"isolation invariant: aggressor never shed a call at the overloaded rates — the drill never pushed past the knee")
	}
	return fails
}

// elasticInvariant gates the candidate's SLO-autoscaled curves. Every
// elastic curve (slo_us > 0) is held to its declared warm budget — no
// point may record a resize warm-in slower than rewarm_budget_cycles —
// and its mean live shard count must stay inside [auto_min, auto_max].
// The suite's "elastic-slo"/"elastic-fixed" pair (shared rate grid)
// additionally carries the elasticity story: the autoscaled fleet must
// hold the p99 SLO at a strictly higher offered rate than the fixed
// fleet does, while averaging no more shards across the sweep than the
// fixed fleet runs — elasticity must buy SLO headroom, not just burn
// capacity. Documents without elastic curves pass untouched.
func elasticInvariant(curves []*measure.BenchLoadCurve) []string {
	var fails []string
	byName := map[string]*measure.BenchLoadCurve{}
	for _, c := range curves {
		byName[c.Name] = c
		if c.SLOMicros <= 0 {
			continue
		}
		budget := c.RewarmBudgetCycles
		if budget == 0 {
			budget = chaos.DefaultRewarmBudgetCycles
		}
		for i, p := range c.Points {
			if p.WarmMaxCycles > budget {
				fails = append(fails, fmt.Sprintf(
					"elastic invariant: %s point %d (offered %.0f/s): slowest resize warm-in %d cycles exceeds declared budget %d",
					c.Name, i, p.OfferedPerSec, p.WarmMaxCycles, budget))
			}
			if p.AvgShards < float64(c.AutoMin) || p.AvgShards > float64(c.AutoMax) {
				fails = append(fails, fmt.Sprintf(
					"elastic invariant: %s point %d (offered %.0f/s): mean %.2f shards outside autoscaler bounds %d..%d",
					c.Name, i, p.OfferedPerSec, p.AvgShards, c.AutoMin, c.AutoMax))
			}
		}
	}
	slo, fixed := byName["elastic-slo"], byName["elastic-fixed"]
	if slo == nil || fixed == nil {
		return fails
	}
	if !sameRates(slo.Points, fixed.Points) {
		return append(fails,
			"elastic invariant: elastic-slo and elastic-fixed were swept over different rate grids; pair incomparable")
	}
	// The highest offered rate each fleet serves within the SLO; -1 when
	// even the lowest rate misses it.
	heldTo := func(c *measure.BenchLoadCurve) int {
		held := -1
		for i, p := range c.Points {
			if p.P99Micros <= slo.SLOMicros {
				held = i
			}
		}
		return held
	}
	sloHeld, fixedHeld := heldTo(slo), heldTo(fixed)
	var meanShards float64
	for _, p := range slo.Points {
		meanShards += p.AvgShards
	}
	meanShards /= float64(len(slo.Points))
	fmt.Printf("\n== elastic invariant ==\np99 SLO %.0f us held to rate index: elastic-slo %d, fixed %d-shard %d (identical rates); elastic mean %.2f shards\n",
		slo.SLOMicros, sloHeld, fixed.Shards, fixedHeld, meanShards)
	if sloHeld <= fixedHeld {
		fails = append(fails, fmt.Sprintf(
			"elastic invariant: autoscaled fleet holds the %.0f us p99 SLO only to rate index %d, not past the fixed %d-shard fleet's index %d",
			slo.SLOMicros, sloHeld, fixed.Shards, fixedHeld))
	}
	if meanShards > float64(fixed.Shards) {
		fails = append(fails, fmt.Sprintf(
			"elastic invariant: autoscaled fleet averaged %.2f shards across the sweep, more than the fixed fleet's %d",
			meanShards, fixed.Shards))
	}
	return fails
}

// availabilityInvariant gates the candidate's chaos drills. Every
// chaos curve is held to its declared re-warm budget (no point may
// record a re-warm slower than rewarm_budget_cycles) and a kill drill
// must actually have fired (shards_down > 0 at every point — a kill
// whose barrier was never reached silently measures a healthy fleet).
// The suite's "chaos-kill" curve additionally holds the availability
// floor against the healthy "skew-replicated" curve on the shared rate
// grid: losing one shard must not cost more than (1 - floor) of the
// healthy knee rate. Documents without chaos curves pass untouched.
func availabilityInvariant(curves []*measure.BenchLoadCurve, floor float64) []string {
	var fails []string
	byName := map[string]*measure.BenchLoadCurve{}
	for _, c := range curves {
		byName[c.Name] = c
		if c.Chaos == "" {
			continue
		}
		budget := c.RewarmBudgetCycles
		if budget == 0 {
			budget = chaos.DefaultRewarmBudgetCycles
		}
		for i, p := range c.Points {
			if p.RewarmMaxCycles > budget {
				fails = append(fails, fmt.Sprintf(
					"chaos invariant: %s point %d (offered %.0f/s): slowest re-warm %d cycles exceeds declared budget %d",
					c.Name, i, p.OfferedPerSec, p.RewarmMaxCycles, budget))
			}
			if strings.Contains(c.Chaos, "kill:") && p.ShardsDown == 0 {
				fails = append(fails, fmt.Sprintf(
					"chaos invariant: %s point %d (offered %.0f/s): kill drill %q never fired (shards_down 0)",
					c.Name, i, p.OfferedPerSec, c.Chaos))
			}
		}
	}
	kill, healthy := byName["chaos-kill"], byName["skew-replicated"]
	if kill == nil || healthy == nil {
		return fails
	}
	if !sameRates(kill.Points, healthy.Points) {
		return append(fails,
			"chaos invariant: chaos-kill and skew-replicated were swept over different rate grids; pair incomparable")
	}
	killCPS, killSat := kneeOffered(kill)
	healthyCPS, healthySat := kneeOffered(healthy)
	if !healthySat || !killSat {
		// No knee on one side: either the healthy sweep gives no basis,
		// or the drill curve never saturated (availability can't be
		// better than that).
		return fails
	}
	fmt.Printf("\n== availability invariant ==\nknee offered: chaos-kill %.0f cps, healthy skew-replicated %.0f cps (floor %.0f%%)\n",
		killCPS, healthyCPS, 100*floor)
	if killCPS < floor*healthyCPS {
		fails = append(fails, fmt.Sprintf(
			"chaos invariant: chaos-kill knee %.0f cps below %.0f%% of healthy skew-replicated knee %.0f cps",
			killCPS, 100*floor, healthyCPS))
	}
	return fails
}

// replicationInvariant gates the candidate's dominant-key pair:
// replication must strictly beat migration-only on the identical-rate
// sweep, and must not fall below the skew-rebalance knee's offered
// rate. Documents without the replicated curve pass untouched.
func replicationInvariant(curves []*measure.BenchLoadCurve) []string {
	byName := map[string]*measure.BenchLoadCurve{}
	for _, c := range curves {
		byName[c.Name] = c
	}
	rep := byName["skew-replicated"]
	if rep == nil {
		return nil
	}
	// A knee index of -1 means the sweep never saturated: treat it as
	// past the end of the grid.
	kneeIdx := func(c *measure.BenchLoadCurve) int {
		if k := measure.KneeIndex(c.Points); k >= 0 {
			return k
		}
		return len(c.Points)
	}
	var fails []string
	if dom := byName["skew-dominant"]; dom != nil {
		// The index comparison is only meaningful over one shared rate
		// grid; refuse a pair whose sweeps diverged rather than gate on
		// incomparable indices.
		if !sameRates(rep.Points, dom.Points) {
			return []string{
				"replication invariant: skew-replicated and skew-dominant were swept over different rate grids; pair incomparable"}
		}
		rk, dk := kneeIdx(rep), kneeIdx(dom)
		fmt.Printf("\n== replication invariant ==\nknee index: skew-replicated %d, skew-dominant %d (identical rates)\n", rk, dk)
		if rk <= dk && rk < len(rep.Points) {
			fails = append(fails, fmt.Sprintf(
				"replication invariant: skew-replicated knee (index %d) does not beat migration-only skew-dominant (index %d)", rk, dk))
		}
	}
	if reb := byName["skew-rebalance"]; reb != nil {
		// Recomputed from the points, like the pair above — a stale or
		// zeroed knee_offered_cps field must not skip the gate.
		repCPS, repSat := kneeOffered(rep)
		rebCPS, rebSat := kneeOffered(reb)
		if repSat && rebSat && repCPS < rebCPS {
			fails = append(fails, fmt.Sprintf(
				"replication invariant: skew-replicated knee %.0f cps below skew-rebalance knee %.0f cps",
				repCPS, rebCPS))
		}
	}
	return fails
}

// kneeOffered returns the offered rate at a curve's saturation knee,
// recomputed from its points (false = the sweep never saturated).
func kneeOffered(c *measure.BenchLoadCurve) (float64, bool) {
	k := measure.KneeIndex(c.Points)
	if k < 0 {
		return 0, false
	}
	return c.Points[k].OfferedPerSec, true
}

// compareCurve gates one matched pair of curves. The detail string
// summarizes what was measured (knee movement, worst p95 shift) for
// the verdict table; it is only meaningful when no failures returned.
func compareCurve(oc, nc *measure.BenchLoadCurve, p95Tol float64) ([]string, string) {
	var fails []string
	if msg := configMismatch(oc, nc); msg != "" {
		fails = append(fails, msg)
		return fails, "workload shape changed"
	}
	if len(nc.Points) != len(oc.Points) {
		fails = append(fails, fmt.Sprintf("%s: point count changed: %d -> %d (sweep incomparable)",
			oc.Name, len(oc.Points), len(nc.Points)))
		return fails, "point count changed"
	}

	oldKnee := measure.KneeIndex(oc.Points)
	newKnee := measure.KneeIndex(nc.Points)
	kneeStr := func(k int) string {
		if k < 0 {
			return "none"
		}
		return fmt.Sprintf("index %d", k)
	}
	fmt.Printf("saturation knee: baseline %s, candidate %s\n", kneeStr(oldKnee), kneeStr(newKnee))
	switch {
	case oldKnee < 0 && newKnee >= 0:
		fails = append(fails, fmt.Sprintf(
			"%s: knee regression: baseline never saturated, candidate saturates at index %d", oc.Name, newKnee))
	case oldKnee >= 0 && newKnee >= 0 && newKnee < oldKnee:
		fails = append(fails, fmt.Sprintf(
			"%s: knee regression: saturation moved earlier, index %d -> %d", oc.Name, oldKnee, newKnee))
	case newKnee > oldKnee || (oldKnee >= 0 && newKnee < 0):
		fmt.Println("note: knee improved; refresh the baseline to lock it in")
	}

	// p95 gate over the baseline's pre-knee region (stable-latency
	// points; past the knee quantiles measure queue growth, not code).
	preKnee := len(oc.Points)
	if oldKnee >= 0 {
		preKnee = oldKnee
	}
	fmt.Printf("%-5s %14s %14s %9s\n", "point", "base p95(us)", "cand p95(us)", "shift")
	var maxShift float64
	for i := 0; i < preKnee; i++ {
		op, np := oc.Points[i], nc.Points[i]
		shift := 0.0
		if op.P95Micros > 0 {
			shift = (np.P95Micros - op.P95Micros) / op.P95Micros
		} else if np.P95Micros > 0 {
			shift = math.Inf(1)
		}
		if math.Abs(shift) > math.Abs(maxShift) {
			maxShift = shift
		}
		fmt.Printf("%-5d %14.1f %14.1f %8.1f%%\n", i, op.P95Micros, np.P95Micros, 100*shift)
		if math.Abs(shift) > p95Tol {
			fails = append(fails, fmt.Sprintf(
				"%s: p95 shift at point %d (offered %.0f/s): %.1fus -> %.1fus (%+.1f%%, tolerance %.0f%%)",
				oc.Name, i, op.OfferedPerSec, op.P95Micros, np.P95Micros, 100*shift, 100*p95Tol))
		}
	}
	detail := fmt.Sprintf("knee %s -> %s; worst p95 shift %+.1f%% over %d pre-knee point(s)",
		kneeStr(oldKnee), kneeStr(newKnee), 100*maxShift, preKnee)
	return fails, detail
}

// tenantsLabel folds a curve's tenant-class declarations into one
// comparable string for the workload-shape check (slices cannot sit in
// the comparable shape struct directly).
func tenantsLabel(tls []measure.TenantLoad) string {
	if len(tls) == 0 {
		return ""
	}
	parts := make([]string, len(tls))
	for i, tl := range tls {
		parts[i] = fmt.Sprintf("%s:%d:%d:%g:%d:%d", tl.Name, tl.Weight, tl.Clients, tl.Boost, tl.Rate, tl.Burst)
	}
	return strings.Join(parts, ",")
}

// sameRates reports whether two point lists sweep one offered-rate
// grid.
func sameRates(a, b []measure.LoadPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].OfferedPerSec != b[i].OfferedPerSec {
			return false
		}
	}
	return true
}

// configMismatch rejects comparisons across different workload shapes.
func configMismatch(oc, nc *measure.BenchLoadCurve) string {
	type shape struct {
		Mix                       string
		HeatOnly                  bool
		Shards, Clients, Calls    int
		Process                   string
		Seed                      int64
		ZipfS                     float64
		ArgsCard, Epochs, CacheSz int
		Rebalance                 bool
		Replicas                  int
		Chaos                     string
		RewarmBudget              uint64
		SLOMicros                 float64
		AutoMin, AutoMax, Warmup  int
		Tenants                   string
		TenantKnee, TenantWindow  int
	}
	o := shape{oc.Mix, oc.HeatOnly, oc.Shards, oc.Clients, oc.CallsPerPoint, oc.Process, oc.Seed,
		oc.ZipfS, oc.ArgsCard, oc.Epochs, oc.CacheSize, oc.Rebalance, oc.Replicas,
		oc.Chaos, oc.RewarmBudgetCycles, oc.SLOMicros, oc.AutoMin, oc.AutoMax, oc.WarmupEpochs,
		tenantsLabel(oc.Tenants), oc.TenantKnee, oc.TenantWindow}
	n := shape{nc.Mix, nc.HeatOnly, nc.Shards, nc.Clients, nc.CallsPerPoint, nc.Process, nc.Seed,
		nc.ZipfS, nc.ArgsCard, nc.Epochs, nc.CacheSize, nc.Rebalance, nc.Replicas,
		nc.Chaos, nc.RewarmBudgetCycles, nc.SLOMicros, nc.AutoMin, nc.AutoMax, nc.WarmupEpochs,
		tenantsLabel(nc.Tenants), nc.TenantKnee, nc.TenantWindow}
	if o != n {
		return fmt.Sprintf("%s: workload shape changed, documents incomparable: baseline %+v, candidate %+v",
			oc.Name, o, n)
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
