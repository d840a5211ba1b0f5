package reconcile

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/spec"
)

// mustSpec parses a spec document or fails the test.
func mustSpec(t *testing.T, doc string) *spec.FleetSpec {
	t.Helper()
	fs, err := spec.Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse(%s): %v", doc, err)
	}
	return fs
}

// openFromSpec opens a live fleet matching the spec through
// measure.FleetOptions, the mapping smodfleetd uses.
func openFromSpec(t *testing.T, fs *spec.FleetSpec) *fleet.Fleet {
	t.Helper()
	opts, _, err := measure.FleetOptions(fs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return f
}

// trafficPlan is one round of idempotent traffic over a few sticky keys.
func trafficPlan(incr uint32, round int) []fleet.Request {
	plan := make([]fleet.Request, 8)
	for i := range plan {
		plan[i] = fleet.Request{
			Key:    fmt.Sprintf("k%02d", i%5),
			FuncID: incr,
			Args:   []uint32{uint32(round*8 + i)},
		}
	}
	return plan
}

// runTraffic runs one round and asserts zero lost idempotent calls
// (every call answered, correct value). Returns the responses.
func runTraffic(t *testing.T, f *fleet.Fleet, incr uint32, round int) []fleet.Response {
	t.Helper()
	plan := trafficPlan(incr, round)
	resps, err := f.RunPlan(plan)
	if err != nil {
		t.Fatalf("round %d: RunPlan: %v", round, err)
	}
	for i, r := range resps {
		if r.Err != nil || r.Errno != 0 {
			t.Fatalf("round %d call %d lost: err=%v errno=%d", round, i, r.Err, r.Errno)
		}
		if want := plan[i].Args[0] + 1; r.Val != want {
			t.Fatalf("round %d call %d: val %d, want %d", round, i, r.Val, want)
		}
	}
	return resps
}

// converge steps the loop (with a round of traffic after each barrier)
// until it reports convergence, failing after maxSteps.
func converge(t *testing.T, l *Loop, f *fleet.Fleet, incr uint32, round *int, maxSteps int) []fleet.Response {
	t.Helper()
	var all []fleet.Response
	for s := 0; s < maxSteps; s++ {
		if _, err := l.Step(); err != nil {
			t.Fatalf("Step %d: %v", s, err)
		}
		all = append(all, runTraffic(t, f, incr, *round)...)
		*round++
		if l.Converged() {
			return all
		}
	}
	t.Fatalf("not converged after %d steps: %+v", maxSteps, l.Status())
	return nil
}

// TestReconcileConvergesGrowShrink pins the basic sizing path: 2 -> 5
// (three adds under a budget of 2: two barriers) and back 5 -> 2, with
// traffic flowing throughout and per-action history recorded.
func TestReconcileConvergesGrowShrink(t *testing.T) {
	s0 := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":2}`)
	f := openFromSpec(t, s0)
	incr, ok := f.FuncID("incr")
	if !ok {
		t.Fatal("no incr")
	}
	l := New(f, s0)
	round := 0
	runTraffic(t, f, incr, round)
	round++

	if _, err := l.Step(); err != nil {
		t.Fatal(err)
	}
	if !l.Converged() {
		t.Fatalf("fresh loop not converged: %+v", l.Status())
	}

	grow := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":5}`)
	if err := l.SetSpec(grow); err != nil {
		t.Fatal(err)
	}
	converge(t, l, f, incr, &round, 6)
	if n := f.LiveShards(); n != 5 {
		t.Fatalf("LiveShards = %d after grow, want 5", n)
	}
	// Budget 2 means the three adds took two barriers.
	st := l.Status()
	if st.Applied != grow || !st.Converged {
		t.Fatalf("status not converged on grow target: %+v", st)
	}
	applied := 0
	for _, h := range st.History {
		if h.Action.Kind == spec.ActionAddShard && h.Outcome == "applied" {
			applied++
		}
	}
	if applied != 3 {
		t.Fatalf("history records %d adds, want 3: %+v", applied, st.History)
	}

	shrink := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":2}`)
	if err := l.SetSpec(shrink); err != nil {
		t.Fatal(err)
	}
	converge(t, l, f, incr, &round, 6)
	if n := f.LiveShards(); n != 2 {
		t.Fatalf("LiveShards = %d after shrink, want 2", n)
	}
	if got := f.Stats().ShardsDrained; got != 3 {
		t.Fatalf("ShardsDrained = %d, want 3", got)
	}
}

// reconcileDrill runs one seeded random-edit drill: a fixed sequence
// of spec edits (grow, shrink, re-mix, strategy swap, autoscale band)
// derived from seed, each converged with traffic in between. Returns
// every response plus the final inventory and stats — the replay
// fingerprint.
func reconcileDrill(t *testing.T, seed int64, edits int) ([]fleet.Response, []spec.ShardState, fleet.Stats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s0 := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":3}`)
	f := openFromSpec(t, s0)
	incr, ok := f.FuncID("incr")
	if !ok {
		t.Fatal("no incr")
	}
	l := New(f, s0)
	round := 0
	var all []fleet.Response
	all = append(all, runTraffic(t, f, incr, round)...)
	round++

	for e := 0; e < edits; e++ {
		var doc string
		switch rng.Intn(4) {
		case 0: // grow or shrink to a random fixed size
			doc = fmt.Sprintf(`{"schema":"smod-fleet-spec/v1","shards":%d}`, 1+rng.Intn(5))
		case 1: // re-mix
			doc = fmt.Sprintf(`{"schema":"smod-fleet-spec/v1","mix":"fast=%d,slow=%d"}`,
				1+rng.Intn(3), 1+rng.Intn(2))
		case 2: // strategy swap on a fixed size
			strat := []string{"sticky", "heat", "costaware"}[rng.Intn(3)]
			doc = fmt.Sprintf(`{"schema":"smod-fleet-spec/v1","shards":%d,"placement":"%s","seed":%d}`,
				2+rng.Intn(3), strat, rng.Intn(8))
		case 3: // autoscale band (unmeetably generous SLO: band floor rules)
			min := 1 + rng.Intn(2)
			doc = fmt.Sprintf(`{"schema":"smod-fleet-spec/v1","autoscale":{"min":%d,"max":%d,"slo_us":1e6}}`,
				min, min+1+rng.Intn(3))
		}
		fs := mustSpec(t, doc)
		if err := l.SetSpec(fs); err != nil {
			t.Fatalf("edit %d (%s): %v", e, doc, err)
		}
		for s := 0; s < 10; s++ {
			if _, err := l.Step(); err != nil {
				t.Fatalf("edit %d step %d (%s): %v", e, s, doc, err)
			}
			all = append(all, runTraffic(t, f, incr, round)...)
			round++
			if l.Converged() {
				break
			}
		}
		if !l.Converged() {
			t.Fatalf("edit %d (%s) did not converge in 10 barriers: %+v", e, doc, l.Status())
		}
	}
	st := l.Status()
	return all, st.Live, f.Stats()
}

// TestReconcileRandomEditsConvergeDeterministically is the acceptance
// property: a seeded sequence of random spec edits — resize, re-mix,
// strategy swap, autoscale band — always converges within a bounded
// number of barriers, loses zero idempotent calls (checked per call),
// and the whole drill replays bit-for-bit: responses, final inventory,
// and every lifecycle counter identical across two runs.
func TestReconcileRandomEditsConvergeDeterministically(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		r1, inv1, s1 := reconcileDrill(t, seed, 5)
		r2, inv2, s2 := reconcileDrill(t, seed, 5)
		if len(r1) != len(r2) {
			t.Fatalf("seed %d: response counts differ: %d vs %d", seed, len(r1), len(r2))
		}
		for i := range r1 {
			a, b := r1[i], r2[i]
			if a.Val != b.Val || a.Shard != b.Shard || a.LatencyCycles != b.LatencyCycles || a.Errno != b.Errno {
				t.Fatalf("seed %d: response %d differs:\n  %+v\n  %+v", seed, i, a, b)
			}
		}
		if fmt.Sprint(inv1) != fmt.Sprint(inv2) {
			t.Fatalf("seed %d: final inventory differs:\n  %v\n  %v", seed, inv1, inv2)
		}
		if s1.ShardsAdded != s2.ShardsAdded || s1.ShardsDrained != s2.ShardsDrained ||
			s1.TotalCalls != s2.TotalCalls || s1.Migrations != s2.Migrations {
			t.Fatalf("seed %d: lifecycle counters differ:\n  %+v\n  %+v", seed, s1, s2)
		}
	}
}

// TestReconcileStrategySwapAndAutoscaler pins the control-plane edits
// end to end on a live fleet: placement swap and autoscaler install
// both land through Step, and the status history records them.
func TestReconcileStrategySwapAndAutoscaler(t *testing.T) {
	s0 := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":3}`)
	f := openFromSpec(t, s0)
	incr, ok := f.FuncID("incr")
	if !ok {
		t.Fatal("no incr")
	}
	l := New(f, s0)
	round := 0
	runTraffic(t, f, incr, round)
	round++

	swap := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":3,"placement":"heat","seed":5}`)
	if err := l.SetSpec(swap); err != nil {
		t.Fatal(err)
	}
	converge(t, l, f, incr, &round, 4)

	band := mustSpec(t, `{"schema":"smod-fleet-spec/v1","autoscale":{"min":2,"max":3,"slo_us":1e6,"hold_windows":1},"placement":"heat","seed":5}`)
	if err := l.SetSpec(band); err != nil {
		t.Fatal(err)
	}
	converge(t, l, f, incr, &round, 6)
	// The generous SLO lets the installed autoscaler shrink to the band
	// floor; the loop never fights it (in-band sizing is the
	// autoscaler's, floor/ceiling the spec's).
	for s := 0; s < 6 && f.LiveShards() > 2; s++ {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
		runTraffic(t, f, incr, round)
		round++
	}
	if n := f.LiveShards(); n != 2 {
		t.Fatalf("LiveShards = %d, want 2 (autoscaler at band floor)", n)
	}
	if !l.Converged() {
		// One more observe pass after the autoscaler's drain.
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
		if !l.Converged() {
			t.Fatalf("band target not converged: %+v", l.Status())
		}
	}

	var kinds []string
	for _, h := range l.Status().History {
		kinds = append(kinds, string(h.Action.Kind)+":"+h.Outcome)
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, "swap-placement:applied") {
		t.Fatalf("history lacks applied swap: %v", kinds)
	}
	if !strings.Contains(joined, "set-autoscaler:applied") {
		t.Fatalf("history lacks applied autoscaler: %v", kinds)
	}
}

// failingDriver wraps a real fleet but fails AddShard — the failed-grow
// path.
type failingDriver struct {
	*fleet.Fleet
	addErr error
}

func (d *failingDriver) AddShard(p backend.Profile) (int, error) {
	if d.addErr != nil {
		return 0, d.addErr
	}
	return d.Fleet.AddShard(p)
}

// Compile-time checks: a live fleet and the failing wrapper both
// satisfy the loop's driver surface.
var (
	_ Driver = (*fleet.Fleet)(nil)
	_ Driver = (*failingDriver)(nil)
)

// TestReconcileRollbackOnFailedGrow pins the rollback contract: when a
// grow fails at the queue, the loop reverts its target to the last
// converged spec, reports the error and the rollback, and subsequent
// Steps hold the old size.
func TestReconcileRollbackOnFailedGrow(t *testing.T) {
	s0 := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":2}`)
	f := openFromSpec(t, s0)
	incr, ok := f.FuncID("incr")
	if !ok {
		t.Fatal("no incr")
	}
	drv := &failingDriver{Fleet: f}
	l := New(drv, s0)
	round := 0
	runTraffic(t, f, incr, round)
	round++
	if _, err := l.Step(); err != nil {
		t.Fatal(err)
	}
	if !l.Converged() {
		t.Fatalf("baseline not converged: %+v", l.Status())
	}

	drv.addErr = errors.New("no capacity")
	grow := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":4}`)
	if err := l.SetSpec(grow); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(); err == nil {
		t.Fatal("Step with failing AddShard succeeded, want error")
	}
	st := l.Status()
	if !st.RolledBack {
		t.Fatalf("status not rolled back: %+v", st)
	}
	if st.Target != s0 {
		t.Fatalf("target not reverted to last converged spec: %+v", st.Target)
	}
	if st.LastError == "" || !strings.Contains(st.LastError, "no capacity") {
		t.Fatalf("LastError = %q, want the grow error", st.LastError)
	}

	// Back on the old target: the loop holds 2 shards and re-converges.
	drv.addErr = nil
	if _, err := l.Step(); err != nil {
		t.Fatal(err)
	}
	runTraffic(t, f, incr, round)
	if n := f.LiveShards(); n != 2 {
		t.Fatalf("LiveShards = %d after rollback, want 2", n)
	}
	if !l.Converged() {
		t.Fatalf("not re-converged after rollback: %+v", l.Status())
	}
}

// TestReconcileStaticDrift pins that cache/cap edits are surfaced as
// restart-required drift, never actioned.
func TestReconcileStaticDrift(t *testing.T) {
	s0 := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":2}`)
	f := openFromSpec(t, s0)
	l := New(f, s0)
	if _, err := l.Step(); err != nil {
		t.Fatal(err)
	}
	edit := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":2,"result_cache":256}`)
	if err := l.SetSpec(edit); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(); err != nil {
		t.Fatal(err)
	}
	st := l.Status()
	if !st.Converged {
		t.Fatalf("static-only drift should converge: %+v", st)
	}
	if len(st.StaticDrift) != 1 || !strings.Contains(st.StaticDrift[0], "result_cache") {
		t.Fatalf("StaticDrift = %v, want the result_cache note", st.StaticDrift)
	}
	for _, h := range st.History {
		if h.Action.Kind == spec.ActionAddShard || h.Action.Kind == spec.ActionDrainShard {
			t.Fatalf("static drift produced a shard action: %+v", h)
		}
	}
}

// TestReconcileTenants drives the QoS block end to end: a spec edit
// enables tenancy at a barrier, a weight edit re-applies live, and
// removing the block disables it again.
func TestReconcileTenants(t *testing.T) {
	s0 := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":2}`)
	f := openFromSpec(t, s0)
	incr, ok := f.FuncID("incr")
	if !ok {
		t.Fatal("no incr")
	}
	l := New(f, s0)
	round := 0

	on := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":2,`+
		`"tenants":{"classes":[{"name":"vic","weight":4},{"name":"agg"}]}}`)
	if err := l.SetSpec(on); err != nil {
		t.Fatal(err)
	}
	converge(t, l, f, incr, &round, 4)
	if _, err := f.RunPlan([]fleet.Request{{Key: "t1", FuncID: incr, Args: []uint32{1}, Tenant: "vic"}}); err != nil {
		t.Fatalf("tenanted call after enable: %v", err)
	}
	if ts := f.Stats().Tenants; ts == nil || ts["vic"].Admitted == 0 {
		t.Fatalf("tenancy not applied: %+v", ts)
	}
	// Unknown names are now rejected — proof the set is live.
	if _, err := f.RunPlan([]fleet.Request{{Key: "t2", FuncID: incr, Args: []uint32{1}, Tenant: "nobody"}}); !errors.Is(err, fleet.ErrTenantUnknown) {
		t.Fatalf("unknown tenant err = %v, want ErrTenantUnknown", err)
	}

	// Weight edit re-applies without a restart.
	rew := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":2,`+
		`"tenants":{"classes":[{"name":"vic","weight":8},{"name":"agg"}]}}`)
	if err := l.SetSpec(rew); err != nil {
		t.Fatal(err)
	}
	converge(t, l, f, incr, &round, 4)

	off := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":2}`)
	if err := l.SetSpec(off); err != nil {
		t.Fatal(err)
	}
	converge(t, l, f, incr, &round, 4)
	if _, err := f.RunPlan([]fleet.Request{{Key: "t3", FuncID: incr, Args: []uint32{1}, Tenant: "nobody"}}); err != nil {
		t.Fatalf("untenanted fleet rejected a name after disable: %v", err)
	}

	var applied int
	for _, h := range l.Status().History {
		if h.Action.Kind == spec.ActionSetTenants && h.Outcome == "applied" {
			applied++
		}
	}
	if applied != 3 {
		t.Fatalf("set-tenants applied %d times in history, want 3", applied)
	}
}

// TestReconcileReplicaCapEdits drives live placement edits on a
// migrating fleet: costaware, then costaware with a replica cap, then
// the cap under heat. Each edit plans exactly one swap-placement,
// converges, and every call in between is answered.
func TestReconcileReplicaCapEdits(t *testing.T) {
	s0 := mustSpec(t, `{"schema":"smod-fleet-spec/v1","shards":4,"placement":"costaware"}`)
	f := openFromSpec(t, s0)
	incr, ok := f.FuncID("incr")
	if !ok {
		t.Fatal("no incr")
	}
	l := New(f, s0)
	round := 0
	converge(t, l, f, incr, &round, 4)

	swaps := func() []string {
		var out []string
		for _, h := range l.Status().History {
			if h.Action.Kind == spec.ActionSwapPlacement && h.Outcome == "applied" {
				out = append(out, h.Action.Detail)
			}
		}
		return out
	}
	cur := s0
	for _, edit := range []struct{ doc, label string }{
		{`{"schema":"smod-fleet-spec/v1","shards":4,"placement":"costaware","replicas":2}`, "costaware/2"},
		{`{"schema":"smod-fleet-spec/v1","shards":4,"placement":"heat","replicas":2}`, "heat/2"},
	} {
		fs := mustSpec(t, edit.doc)
		if plan := fs.Diff(cur, shardStates(f.Inventory())); len(plan) != 1 ||
			plan[0] != (spec.Action{Kind: spec.ActionSwapPlacement, Detail: edit.label}) {
			t.Fatalf("%s: plan = %v, want one swap-placement %s", edit.label, plan, edit.label)
		}
		before := len(swaps())
		if err := l.SetSpec(fs); err != nil {
			t.Fatal(err)
		}
		converge(t, l, f, incr, &round, 4)
		// A few more barriers under traffic on the new strategy.
		for i := 0; i < 3; i++ {
			if _, err := l.Step(); err != nil {
				t.Fatal(err)
			}
			runTraffic(t, f, incr, round)
			round++
		}
		if got := swaps(); len(got) != before+1 || got[len(got)-1] != edit.label {
			t.Fatalf("%s: applied swaps %v, want exactly one more (%s)", edit.label, got, edit.label)
		}
		if st := l.Status(); st.Applied != fs || !st.Converged {
			t.Fatalf("%s: not converged on the edit: %+v", edit.label, st)
		}
		cur = fs
	}
}
