package fleet

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/tenant"
)

// qosSet builds the two-class victim/aggressor set the QoS tests share.
func qosSet(knee, window int) *tenant.Set {
	return &tenant.Set{
		Knee:   knee,
		Window: window,
		Classes: []tenant.Config{
			{Name: "victim", Weight: 4},
			{Name: "aggressor", Weight: 1},
		},
	}
}

// TestSentinelErrorsMatchable is the table-driven errors.Is suite over
// every fleet sentinel, the QoS pair included: each matches itself
// through wrapping and never matches a different sentinel.
func TestSentinelErrorsMatchable(t *testing.T) {
	sentinels := []struct {
		name string
		err  error
	}{
		{"ErrFleetClosed", ErrFleetClosed},
		{"ErrShardDown", ErrShardDown},
		{"ErrUnknownShard", ErrUnknownShard},
		{"ErrDrainInProgress", ErrDrainInProgress},
		{"ErrOverload", ErrOverload},
		{"ErrTenantUnknown", ErrTenantUnknown},
	}
	for _, tc := range sentinels {
		wrapped := fmt.Errorf("fleet: shard 3: %w", tc.err)
		if !errors.Is(wrapped, tc.err) {
			t.Errorf("%s: wrapped form does not match", tc.name)
		}
		for _, other := range sentinels {
			if other.name != tc.name && errors.Is(wrapped, other.err) {
				t.Errorf("%s: cross-matches %s", tc.name, other.name)
			}
		}
	}
	if !IsOverload(fmt.Errorf("x: %w", ErrOverload)) || IsOverload(ErrShardDown) {
		t.Error("IsOverload does not track errors.Is(·, ErrOverload)")
	}
}

func TestTenantUnknownRejected(t *testing.T) {
	f := newTestFleet(t, append(testOpts(2), WithTenants(qosSet(0, 0)))...)
	incr := incrID(t, f)
	if r := f.Do(Request{Key: "k", FuncID: incr, Args: []uint32{1}, Tenant: "nobody"}); !errors.Is(r.Err, ErrTenantUnknown) || r.Shard != -1 {
		t.Fatalf("Do(unknown tenant) = %+v, want ErrTenantUnknown on shard -1", r)
	}
	if _, err := f.RunPlan([]Request{{Key: "k", FuncID: incr, Args: []uint32{1}, Tenant: "nobody"}}); !errors.Is(err, ErrTenantUnknown) {
		t.Fatalf("RunPlan(unknown tenant) err = %v, want ErrTenantUnknown", err)
	}
	// Declared classes, the implicit default class, and nameless
	// requests are all admitted.
	for _, name := range []string{"victim", "aggressor", "default", ""} {
		r, err := f.RunPlan([]Request{{Key: "k-" + name, FuncID: incr, Args: []uint32{1}, Tenant: name}})
		if err != nil || r[0].Err != nil || r[0].Val != 2 {
			t.Fatalf("tenant %q: r=%+v err=%v", name, r, err)
		}
	}
}

// TestTenantShedPastKnee drives an aggressor storm past a small knee
// with a lightly-loaded victim interleaved: the aggressor sheds (with
// the matchable sentinel), the victim is never shed, and shed calls
// carry no errno and no latency sample.
func TestTenantShedPastKnee(t *testing.T) {
	f := newTestFleet(t, append(testOpts(1), WithTenants(qosSet(8, 2)))...)
	incr := incrID(t, f)
	var reqs []Request
	for i := 0; i < 100; i++ {
		reqs = append(reqs, Request{Key: fmt.Sprintf("agg-%d", i%5), FuncID: incr,
			Args: []uint32{1}, Tenant: "aggressor"})
		if i%10 == 0 {
			reqs = append(reqs, Request{Key: "vic", FuncID: incr,
				Args: []uint32{1}, Tenant: "victim"})
		}
	}
	resps, err := f.RunPlan(reqs)
	if err != nil {
		t.Fatal(err)
	}
	aggShed, vicShed := 0, 0
	for i, r := range resps {
		switch {
		case r.Err == nil:
			continue
		case !errors.Is(r.Err, ErrOverload):
			t.Fatalf("resp %d: unexpected error %v", i, r.Err)
		case r.Errno != 0 || r.LatencyCycles != 0:
			t.Fatalf("shed resp %d carries errno %d latency %d", i, r.Errno, r.LatencyCycles)
		case reqs[i].Tenant == "victim":
			vicShed++
		default:
			aggShed++
		}
	}
	if aggShed == 0 {
		t.Fatal("aggressor storm past the knee shed nothing")
	}
	if vicShed != 0 {
		t.Fatalf("victim shed %d calls while under its share", vicShed)
	}
	st := f.Stats()
	ts := st.Tenants
	if ts == nil || ts["aggressor"].Shed == 0 || ts["victim"].Shed != 0 {
		t.Fatalf("stats tenants = %+v", ts)
	}
	if got := ts["aggressor"].Admitted + ts["aggressor"].Shed; got != 100 {
		t.Fatalf("aggressor admitted+shed = %d, want 100", got)
	}
}

// TestTenantBucketAdmission pins the token bucket on the dispatch path:
// a burst-2 aggressor firing 10 back-to-back calls lands exactly its
// burst; the unlimited victim lands everything.
func TestTenantBucketAdmission(t *testing.T) {
	set := &tenant.Set{Classes: []tenant.Config{
		{Name: "victim", Weight: 4},
		{Name: "aggressor", Weight: 1, Rate: 100, Burst: 2},
	}}
	f := newTestFleet(t, append(testOpts(1), WithTenants(set))...)
	incr := incrID(t, f)
	var reqs []Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, Request{Key: "agg", FuncID: incr, Args: []uint32{1}, Tenant: "aggressor"})
		reqs = append(reqs, Request{Key: "vic", FuncID: incr, Args: []uint32{1}, Tenant: "victim"})
	}
	resps, err := f.RunPlan(reqs)
	if err != nil {
		t.Fatal(err)
	}
	aggOK, vicOK := 0, 0
	for i, r := range resps {
		if r.Err == nil {
			if reqs[i].Tenant == "victim" {
				vicOK++
			} else {
				aggOK++
			}
		} else if !errors.Is(r.Err, ErrOverload) {
			t.Fatalf("resp %d: %v", i, r.Err)
		}
	}
	if vicOK != 10 {
		t.Fatalf("victim served %d of 10", vicOK)
	}
	// All 20 requests arrive at the same stretch-start cycle, so the
	// aggressor's bucket admits exactly its burst.
	if aggOK != 2 {
		t.Fatalf("aggressor served %d, want exactly its burst of 2", aggOK)
	}
}

// TestTenantWFQOrdering pins the fair-queueing half: with window 1 the
// injection order is exactly DRR order, so under equal backlogged
// demand the weight-4 victim's calls finish markedly earlier than the
// weight-1 aggressor's.
func TestTenantWFQOrdering(t *testing.T) {
	f := newTestFleet(t, append(testOpts(1), WithTenants(qosSet(10_000, 1)))...)
	incr := incrID(t, f)
	var reqs []Request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, Request{Key: "agg", FuncID: incr, Args: []uint32{1}, Tenant: "aggressor"})
		reqs = append(reqs, Request{Key: "vic", FuncID: incr, Args: []uint32{1}, Tenant: "victim"})
	}
	resps, err := f.RunPlan(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var vicMax, aggMax uint64
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("resp %d: %v", i, r.Err)
		}
		if reqs[i].Tenant == "victim" {
			if r.LatencyCycles > vicMax {
				vicMax = r.LatencyCycles
			}
		} else if r.LatencyCycles > aggMax {
			aggMax = r.LatencyCycles
		}
	}
	// Weight 4 vs 1: the victim's 20 calls drain within the first 25
	// serves, leaving the aggressor's tail to run alone afterwards. So
	// the victim finishes strictly first, and most of the aggressor's
	// calls outlast the victim's slowest.
	if vicMax >= aggMax {
		t.Fatalf("victim max latency %d not under aggressor's %d", vicMax, aggMax)
	}
	tail := 0
	for i, r := range resps {
		if reqs[i].Tenant == "aggressor" && r.LatencyCycles > vicMax {
			tail++
		}
	}
	if tail < 10 {
		t.Fatalf("only %d aggressor calls outlast the victim's slowest; want >= 10 of 20", tail)
	}
}

// TestTenantDeterministicReplay runs the same tenanted storm on two
// fresh fleets: responses, sheds, and per-shard cycle counts must be
// bit-for-bit identical.
func TestTenantDeterministicReplay(t *testing.T) {
	run := func() ([]Response, []uint64) {
		f, err := Open(append(testOpts(2), WithTenants(qosSet(8, 2)))...)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		incr := incrID(t, f)
		var reqs []Request
		for i := 0; i < 120; i++ {
			tn := "aggressor"
			if i%4 == 0 {
				tn = "victim"
			}
			reqs = append(reqs, Request{Key: fmt.Sprintf("k-%d", i%8), FuncID: incr,
				Args: []uint32{1}, Tenant: tn})
		}
		resps, err := f.RunPlan(reqs)
		if err != nil {
			t.Fatal(err)
		}
		var cycles []uint64
		for _, ps := range f.Stats().PerShard {
			cycles = append(cycles, ps.Cycles)
		}
		return resps, cycles
	}
	r1, c1 := run()
	r2, c2 := run()
	for i := range r1 {
		a, b := r1[i], r2[i]
		aShed, bShed := errors.Is(a.Err, ErrOverload), errors.Is(b.Err, ErrOverload)
		if a.Val != b.Val || a.Errno != b.Errno || a.Shard != b.Shard ||
			a.LatencyCycles != b.LatencyCycles || aShed != bShed {
			t.Fatalf("resp %d diverged: %+v vs %+v", i, a, b)
		}
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("shard %d cycles diverged: %d vs %d", i, c1[i], c2[i])
		}
	}
}

// TestSetTenantsLive re-applies tenancy at a barrier: a fleet opened
// untenanted gains classes (and starts rejecting unknown names),
// weights re-apply, and a nil set disables QoS again.
func TestSetTenantsLive(t *testing.T) {
	f := newTestFleet(t, testOpts(2)...)
	incr := incrID(t, f)
	// Untenanted: names pass unchecked.
	if _, err := f.RunPlan([]Request{{Key: "k", FuncID: incr, Args: []uint32{1}, Tenant: "anything"}}); err != nil {
		t.Fatalf("untenanted fleet rejected a tenant name: %v", err)
	}
	if err := f.SetTenants(qosSet(0, 0)); err != nil {
		t.Fatal(err)
	}
	// Queued only: the check lands at the next barrier (RunPlan opens
	// with one).
	if _, err := f.RunPlan([]Request{{Key: "k", FuncID: incr, Args: []uint32{1}, Tenant: "victim"}}); err != nil {
		t.Fatal(err)
	}
	if r := f.Do(Request{Key: "k", FuncID: incr, Args: []uint32{1}, Tenant: "anything"}); !errors.Is(r.Err, ErrTenantUnknown) {
		t.Fatalf("after SetTenants, unknown name err = %v, want ErrTenantUnknown", r.Err)
	}
	st := f.Stats()
	if st.Tenants == nil || st.Tenants["victim"].Admitted == 0 {
		t.Fatalf("tenanted stats missing: %+v", st.Tenants)
	}
	// Rejected sets never half-apply.
	if err := f.SetTenants(&tenant.Set{Classes: []tenant.Config{{Name: ""}}}); err == nil {
		t.Fatal("SetTenants accepted an invalid set")
	}
	// Disable again: names pass, stats stop carrying tenant maps.
	if err := f.SetTenants(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunPlan([]Request{{Key: "k", FuncID: incr, Args: []uint32{1}, Tenant: "anything"}}); err != nil {
		t.Fatalf("after SetTenants(nil): %v", err)
	}
	if got := f.Stats().Tenants; got != nil {
		t.Fatalf("disabled fleet still reports tenants: %+v", got)
	}
}

// TestTenantStatsDelta checks the per-epoch view: cumulative admitted/
// shed subtract while Sessions and QueueMax stay point-in-time.
func TestTenantStatsDelta(t *testing.T) {
	f := newTestFleet(t, append(testOpts(1), WithTenants(qosSet(0, 0)))...)
	incr := incrID(t, f)
	plan := func(n int) {
		var reqs []Request
		for i := 0; i < n; i++ {
			reqs = append(reqs, Request{Key: "k", FuncID: incr, Args: []uint32{1}, Tenant: "victim"})
		}
		if _, err := f.RunPlan(reqs); err != nil {
			t.Fatal(err)
		}
	}
	plan(5)
	prev := f.Stats()
	plan(3)
	d := f.Stats().Delta(prev)
	if got := d.Tenants["victim"].Admitted; got != 3 {
		t.Fatalf("delta admitted = %d, want 3", got)
	}
	if d.Tenants["victim"].Sessions != 1 {
		t.Fatalf("delta sessions = %d, want current value 1", d.Tenants["victim"].Sessions)
	}
	if prev.Tenants["victim"].Admitted != 5 {
		t.Fatalf("Delta mutated its source: %+v", prev.Tenants)
	}
}
