package fleet

// Integration tests for the loadmgr subsystem wired through the fleet:
// hot-key migration at barrier points, the idempotent result cache,
// and — the properties the ISSUE pins — bit-for-bit deterministic
// RunPlan cycle counts with migration enabled, and cache hits that
// never change response bytes versus uncached execution.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/loadmgr"
	"repro/internal/placement"
)

// libcProvisionIdem registers the libc module with incr declared
// idempotent, so the result cache may memoize it.
func libcProvisionIdem(k *kern.Kernel, sm *core.SMod, _ backend.Profile) error {
	lib, err := core.LibCArchive()
	if err != nil {
		return err
	}
	_, err = sm.Register(&core.ModuleSpec{
		Name: "libc", Version: 1, Owner: "owner", Lib: lib,
		PolicySrc:       []string{fleetPolicy},
		IdempotentFuncs: []string{"incr"},
	})
	return err
}

// idemOpts is testOpts plus the idempotent-aware provision (so result
// cache options actually bite) and any extra options.
func idemOpts(shards int, extra ...Option) []Option {
	return append(append(testOpts(shards), WithProvision(libcProvisionIdem)), extra...)
}

// skewedPlan builds one round of a skewed workload: hotKey gets `hot`
// calls, every other key one call, in a deterministic order.
func skewedPlan(incr uint32, keys, hot int) []Request {
	var plan []Request
	for i := 0; i < hot; i++ {
		plan = append(plan, Request{Key: "k00", FuncID: incr, Args: []uint32{uint32(i)}})
	}
	for c := 1; c < keys; c++ {
		plan = append(plan, Request{Key: fmt.Sprintf("k%02d", c), FuncID: incr, Args: []uint32{uint32(c)}})
	}
	return plan
}

func TestMigrationRebalancesSkewedLoad(t *testing.T) {
	f := newTestFleet(t, idemOpts(2, WithPlacement(placement.NewCostAware(loadmgr.Options{
		ImbalanceThreshold: 1.05,
	})))...)
	incr := incrID(t, f)

	// k00..k05 alternate shards on first sight; k00, k02, k04 land on
	// shard 0 and k00 is far hotter than everything else, so shard 0
	// carries almost all the heat until the migrator reacts. The
	// greedy planner cannot usefully move k00 itself (that would just
	// swap which shard is hot); it must drain k00's co-resident keys
	// to the cold shard instead.
	keys := []string{"k00", "k01", "k02", "k03", "k04", "k05"}
	before := map[string]int{}
	for round := 0; round < 4; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 6, 20))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 0 {
			for _, k := range keys {
				sid, ok := f.placement().Lookup(k)
				if !ok {
					t.Fatalf("%s unassigned after first plan", k)
				}
				before[k] = sid
			}
		}
	}
	st := f.Stats()
	if st.Migrations == 0 {
		t.Fatal("skewed workload triggered no migrations")
	}
	var in, out uint64
	for _, s := range st.PerShard {
		in += s.MigratedIn
		out += s.MigratedOut
	}
	if in != out || in != st.Migrations {
		t.Fatalf("migration counters disagree: in=%d out=%d total=%d", in, out, st.Migrations)
	}
	hotShard := before["k00"]
	stillThere := 0
	for _, k := range keys {
		if sid, ok := f.placement().Lookup(k); ok && before[k] == hotShard && sid == hotShard {
			stillThere++
		}
	}
	if stillThere >= 3 {
		t.Fatalf("hot shard %d kept all %d of its keys; no load left it", hotShard, stillThere)
	}
	// Post-migration traffic on every key still answers correctly.
	for _, k := range keys {
		v, err := f.Call(k, incr, 41)
		if err != nil || v != 42 {
			t.Fatalf("post-migration Call(%s) = (%d, %v), want (42, nil)", k, v, err)
		}
	}
}

func TestNoMigrationWhenDisabled(t *testing.T) {
	// Result cache on, sticky placement: barriers must not move sessions.
	f := newTestFleet(t, idemOpts(2, WithResultCache(16))...)
	incr := incrID(t, f)
	for round := 0; round < 3; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 6, 20))); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Stats(); st.Migrations != 0 {
		t.Fatalf("cache-only fleet migrated %d sessions", st.Migrations)
	}
}

// respErr collapses a RunPlan result into the first failure.
func respErr(resps []Response, err error) error {
	if err != nil {
		return err
	}
	for i, r := range resps {
		if r.Err != nil {
			return fmt.Errorf("resp[%d]: %w", i, r.Err)
		}
		if r.Errno != 0 {
			return fmt.Errorf("resp[%d]: errno %d", i, r.Errno)
		}
	}
	return nil
}

// migPlanFor builds seeded pseudo-random rounds with a Zipf-flavoured
// key skew, hot enough that migration rounds actually fire.
func migPlanFor(incr uint32, seed int64, round, keys, calls int) []Request {
	rng := rand.New(rand.NewSource(seed + int64(round)*1000))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(keys-1))
	var plan []Request
	for i := 0; i < calls; i++ {
		plan = append(plan, Request{
			Key:    fmt.Sprintf("z%02d", zipf.Uint64()),
			FuncID: incr,
			Args:   []uint32{uint32(rng.Intn(1 << 12))},
		})
	}
	return plan
}

// TestDeterministicCyclesWithMigration is the ISSUE's determinism
// property: RunPlan cycle counts are bit-for-bit identical with
// migration enabled across runs of the same seed — migrations included.
func TestDeterministicCyclesWithMigration(t *testing.T) {
	run := func() ([]uint64, uint64) {
		f := newTestFleet(t, idemOpts(3, WithPlacement(placement.NewCostAware(loadmgr.Options{
			ImbalanceThreshold: 1.05,
			Seed:               7,
		})))...)
		incr := incrID(t, f)
		for round := 0; round < 5; round++ {
			if err := respErr(f.RunPlan(migPlanFor(incr, 42, round, 8, 40))); err != nil {
				t.Fatal(err)
			}
		}
		st := f.Stats()
		cycles := make([]uint64, len(st.PerShard))
		for i, s := range st.PerShard {
			cycles[i] = s.Cycles
		}
		return cycles, st.Migrations
	}
	c1, m1 := run()
	c2, m2 := run()
	if m1 == 0 {
		t.Fatal("determinism run exercised no migrations; strengthen the skew")
	}
	if m1 != m2 {
		t.Fatalf("migration counts differ across runs: %d vs %d", m1, m2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("shard %d cycles differ with migration enabled: %d vs %d", i, c1[i], c2[i])
		}
	}
}

// TestCacheNeverChangesResponses is the ISSUE's cache-transparency
// property: the same plan on a cached fleet and an uncached fleet
// yields identical response bytes for every request, and the cached
// fleet actually hit.
func TestCacheNeverChangesResponses(t *testing.T) {
	mkPlan := func(incr uint32) []Request {
		rng := rand.New(rand.NewSource(11))
		var plan []Request
		for i := 0; i < 120; i++ {
			plan = append(plan, Request{
				Key:    fmt.Sprintf("c%d", rng.Intn(5)),
				FuncID: incr,
				Args:   []uint32{uint32(rng.Intn(8))}, // small arg space: many repeats
			})
		}
		return plan
	}
	// The plan runs in two halves: within one RunPlan batch every
	// request is injected before any completes, so only the second
	// half can hit memos filled by the first.
	runHalves := func(f *Fleet) []Response {
		plan := mkPlan(incrID(t, f))
		half := len(plan) / 2
		first, err := f.RunPlan(plan[:half])
		if err != nil {
			t.Fatal(err)
		}
		second, err := f.RunPlan(plan[half:])
		if err != nil {
			t.Fatal(err)
		}
		return append(first, second...)
	}

	plain := runHalves(newTestFleet(t, testOpts(2)...))
	f := newTestFleet(t, idemOpts(2, WithResultCache(32))...)
	cached := runHalves(f)
	for i := range plain {
		if plain[i].Val != cached[i].Val || plain[i].Errno != cached[i].Errno ||
			(plain[i].Err == nil) != (cached[i].Err == nil) {
			t.Fatalf("resp[%d] differs: uncached %+v, cached %+v", i, plain[i], cached[i])
		}
	}
	st := f.Stats()
	if st.CacheHits == 0 {
		t.Fatal("repeating idempotent workload produced no cache hits")
	}
	if st.CacheHits+st.CacheMisses == 0 || st.CacheMisses == 0 {
		t.Fatalf("implausible cache counters: %d hits / %d misses", st.CacheHits, st.CacheMisses)
	}
	// Cache hits skip the handle dispatch entirely: the cached fleet
	// must have executed fewer real smod_calls than requests.
	if st.TotalCalls >= uint64(len(cached)) {
		t.Fatalf("TotalCalls = %d with %d requests: hits did not bypass dispatch",
			st.TotalCalls, len(cached))
	}
}

// TestCacheDeterministicCycles: caching changes the cycle counts (hits
// are cheaper) but must keep them deterministic run-to-run.
func TestCacheDeterministicCycles(t *testing.T) {
	run := func() []uint64 {
		f := newTestFleet(t, idemOpts(2, WithResultCache(8))...)
		incr := incrID(t, f)
		rng := rand.New(rand.NewSource(5))
		for round := 0; round < 3; round++ {
			var plan []Request
			for i := 0; i < 40; i++ {
				plan = append(plan, Request{
					Key:    fmt.Sprintf("d%d", rng.Intn(4)),
					FuncID: incr,
					Args:   []uint32{uint32(rng.Intn(6))},
				})
			}
			if err := respErr(f.RunPlan(plan)); err != nil {
				t.Fatal(err)
			}
		}
		st := f.Stats()
		if st.CacheHits == 0 {
			t.Fatal("no hits in determinism run")
		}
		cycles := make([]uint64, len(st.PerShard))
		for i, s := range st.PerShard {
			cycles[i] = s.Cycles
		}
		return cycles
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("shard %d cycles differ with cache enabled: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestScheduleCacheHitsOverIdleGaps regresses a scheduler deadlock: a
// timed arrival answered from the result cache wakes no process, so a
// schedule whose tail is all cache hits (with idle gaps between them)
// must keep advancing the clock instead of handing the kernel an empty
// run queue.
func TestScheduleCacheHitsOverIdleGaps(t *testing.T) {
	run := func() ([]uint64, uint64) {
		f := newTestFleet(t, idemOpts(2, WithResultCache(16))...)
		incr := incrID(t, f)
		// Warm the memo table, then a schedule of pure repeats with
		// wide idle gaps: every arrival after the first hits.
		if err := respErr(f.RunPlan([]Request{
			{Key: "s0", FuncID: incr, Args: []uint32{5}},
			{Key: "s1", FuncID: incr, Args: []uint32{5}},
		})); err != nil {
			t.Fatal(err)
		}
		var treqs []TimedRequest
		for i := 0; i < 10; i++ {
			treqs = append(treqs, TimedRequest{
				At:  uint64(i) * 500_000, // ~835us apart: pure idle gaps
				Req: Request{Key: fmt.Sprintf("s%d", i%2), FuncID: incr, Args: []uint32{5}},
			})
		}
		resps, err := f.RunSchedule(treqs)
		if err != nil {
			t.Fatal(err)
		}
		lats := make([]uint64, len(resps))
		for i, r := range resps {
			if r.Err != nil || r.Errno != 0 || r.Val != 6 {
				t.Fatalf("resp[%d] = %+v, want Val 6", i, r)
			}
			lats[i] = r.LatencyCycles
		}
		st := f.Stats()
		if st.CacheHits < uint64(len(treqs)) {
			t.Fatalf("CacheHits = %d, want >= %d (all-repeat schedule)", st.CacheHits, len(treqs))
		}
		return lats, st.MakespanCycles
	}
	l1, m1 := run()
	l2, m2 := run()
	if m1 != m2 {
		t.Errorf("makespan differs across runs: %d vs %d", m1, m2)
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Errorf("latency[%d] differs across runs: %d vs %d", i, l1[i], l2[i])
		}
	}
}

// TestWarmSessionAfterMigration: the migrated-in shard opens the
// session during the warm job, so the key's first post-migration call
// pays no session setup there.
func TestWarmSessionAfterMigration(t *testing.T) {
	f := newTestFleet(t, idemOpts(2, WithPlacement(placement.NewCostAware(loadmgr.Options{
		ImbalanceThreshold: 1.05,
		MaxMovesPerRound:   1,
	})))...)
	incr := incrID(t, f)
	keys := []string{"k00", "k01", "k02", "k03"}
	before := map[string]int{}
	for round := 0; round < 3; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 4, 16))); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			for _, k := range keys {
				before[k], _ = f.placement().Lookup(k)
			}
		}
	}
	st := f.Stats()
	if st.Migrations == 0 {
		t.Fatal("no migration to observe")
	}
	// Find a key that actually moved and its new home.
	moved, sid := "", -1
	for _, k := range keys {
		if cur, ok := f.placement().Lookup(k); ok && cur != before[k] {
			moved, sid = k, cur
			break
		}
	}
	if moved == "" {
		t.Fatal("migrations reported but no key changed shards")
	}
	opened := st.PerShard[sid].SessionsOpened
	if opened == 0 {
		t.Fatalf("destination shard %d opened no sessions (warm job missing)", sid)
	}
	// The migrated key's next call finds its session already warm on
	// the new shard: no further session setup there.
	if _, err := f.Call(moved, incr, 1); err != nil {
		t.Fatal(err)
	}
	st2 := f.Stats()
	if got := st2.PerShard[sid].SessionsOpened; got != opened {
		t.Fatalf("post-migration call on %s paid session setup: %d -> %d", moved, opened, got)
	}
}

// TestReleaseAfterMigration: a released migrated key can come back
// anywhere and still work.
func TestReleaseAfterMigration(t *testing.T) {
	f := newTestFleet(t, idemOpts(2, WithPlacement(placement.NewCostAware(loadmgr.Options{
		ImbalanceThreshold: 1.05,
	})))...)
	incr := incrID(t, f)
	for round := 0; round < 3; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 4, 16))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Release("k00"); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.placement().Lookup("k00"); ok {
		t.Fatal("k00 still assigned after Release")
	}
	v, err := f.Call("k00", incr, 9)
	if err != nil || v != 10 {
		t.Fatalf("Call after Release = (%d, %v), want (10, nil)", v, err)
	}
}
