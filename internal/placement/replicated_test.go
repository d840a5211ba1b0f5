package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/loadmgr"
)

// grow routes a dominant-key round and applies the rebalance, until
// the key holds at least want replicas.
func grow(t testing.TB, r *Replicated, key string, want int) {
	t.Helper()
	for round := 0; round < 8; round++ {
		for i := 0; i < 24; i++ {
			r.Route(Call{Key: key, Idempotent: true})
		}
		for c := 1; c < 4; c++ {
			r.Route(Call{Key: fmt.Sprintf("bg%d", c), Idempotent: true})
		}
		for _, mv := range r.Rebalance() {
			r.Commit(mv)
		}
		if len(r.Replicas(key)) >= want {
			return
		}
	}
	t.Fatalf("%s reached only %d replicas, want >= %d", key, len(r.Replicas(key)), want)
}

// TestReplicatedSizing: the dominant key fans out, hits rotate over
// the set, and the distribution is recorded per shard.
func TestReplicatedSizing(t *testing.T) {
	r := NewReplicated(ReplicatedConfig{
		Options: loadmgr.Options{ImbalanceThreshold: 1.05, Seed: 1}, MaxReplicas: 4})
	if err := r.Bind(4, nil); err != nil {
		t.Fatal(err)
	}
	grow(t, r, "hot", 2)
	before := r.Load()
	for i := 0; i < 8; i++ {
		r.Route(Call{Key: "hot", Idempotent: true})
	}
	dist := r.HitDistribution()["hot"]
	if len(dist) < 2 {
		t.Fatalf("hit distribution %v, want >= 2 shards", dist)
	}
	// Routing allocates nothing new: load unchanged by reads.
	after := r.Load()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("idempotent routing changed load: %v -> %v", before, after)
		}
	}
}

// TestReplicatedDrainsDecayedKey regresses the replica leak: a key
// whose idempotent heat decays entirely out of the tracker must still
// be swept at barriers until its replica set has drained back to the
// primary — even though it no longer appears in any heat map.
func TestReplicatedDrainsDecayedKey(t *testing.T) {
	r := NewReplicated(ReplicatedConfig{
		Options: loadmgr.Options{ImbalanceThreshold: 1.05, Seed: 1}, MaxReplicas: 4})
	if err := r.Bind(4, nil); err != nil {
		t.Fatal(err)
	}
	grow(t, r, "hot", 2)

	// The key goes fully cold: many silent rounds, enough for the EWMA
	// to decay below the tracking floor.
	for round := 0; round < 24; round++ {
		for c := 1; c < 4; c++ {
			r.Route(Call{Key: fmt.Sprintf("bg%d", c), Idempotent: true})
		}
		for _, mv := range r.Rebalance() {
			r.Commit(mv)
		}
	}
	if got := r.Replicas("hot"); len(got) != 1 {
		t.Fatalf("cold key still holds %v after 24 barriers, want primary only", got)
	}
}

// TestReplicatedMigrateKnob: Options.Migrate gates migration of
// unreplicated keys; replication itself runs either way.
func TestReplicatedMigrateKnob(t *testing.T) {
	run := func(migrate bool) (replicas, migrations int) {
		r := NewReplicated(ReplicatedConfig{
			Options:     loadmgr.Options{Migrate: migrate, ImbalanceThreshold: 1.05, Seed: 1},
			MaxReplicas: 4})
		if err := r.Bind(4, nil); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 6; round++ {
			// A dominant key plus a pile of co-resident warm keys: both
			// replication and (when allowed) migration have work.
			for i := 0; i < 24; i++ {
				r.Route(Call{Key: "hot", Idempotent: true})
			}
			for c := 1; c < 10; c++ {
				r.Route(Call{Key: fmt.Sprintf("bg%d", c), Idempotent: c%2 == 0})
			}
			for _, mv := range r.Rebalance() {
				if r.Commit(mv) {
					switch mv.Kind {
					case MoveReplicate:
						replicas++
					case MoveMigrate:
						migrations++
					}
				}
			}
		}
		return replicas, migrations
	}
	rep, mig := run(true)
	if rep == 0 || mig == 0 {
		t.Fatalf("Migrate:true planned %d replications, %d migrations; want both > 0", rep, mig)
	}
	rep, mig = run(false)
	if rep == 0 {
		t.Fatalf("Migrate:false planned no replications")
	}
	if mig != 0 {
		t.Fatalf("Migrate:false still planned %d migrations", mig)
	}
}

// replicatedPair binds a replicating strategy to two shards and grows
// "hot" a replica on each.
func replicatedPair(tb testing.TB) *Replicated {
	r := NewReplicated(ReplicatedConfig{
		Options: loadmgr.Options{ImbalanceThreshold: 1.05, Seed: 1}, MaxReplicas: 2})
	if err := r.Bind(2, nil); err != nil {
		tb.Fatal(err)
	}
	grow(tb, r, "hot", 2)
	if got := r.Replicas("hot"); len(got) != 2 {
		tb.Fatalf("Replicas(hot) = %v, want two", got)
	}
	return r
}

// TestReplicatedRouteAllocs: an idempotent call of a replicated key
// reads the replica set into the route's own buffer, so routing it
// allocates nothing.
func TestReplicatedRouteAllocs(t *testing.T) {
	r := replicatedPair(t)
	c := Call{Key: "hot", Idempotent: true}
	if n := testing.AllocsPerRun(1000, func() { r.Route(c) }); n != 0 {
		t.Fatalf("replicated idempotent Route: %v allocs, want 0", n)
	}
}

// BenchmarkReplicatedRoute times idempotent routes of a key replicated
// on two shards.
func BenchmarkReplicatedRoute(b *testing.B) {
	r := replicatedPair(b)
	c := Call{Key: "hot", Idempotent: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Route(c)
	}
}

// skewReplicated builds the fleet-skew benchmark's strategy (2 shards,
// at most 2 replicas, migration on) and a 5,000-route epoch of
// idempotent calls over 64 Zipf(2.0) keys, and runs three epochs, each
// closed by a committed rebalance, so the replica set and the
// migrations have settled.
func skewReplicated(tb testing.TB) (*Replicated, []Call) {
	r := NewReplicated(ReplicatedConfig{
		Options: loadmgr.Options{Migrate: true, Seed: 1}, MaxReplicas: 2})
	if err := r.Bind(2, nil); err != nil {
		tb.Fatal(err)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 2.0, 1, 63)
	epoch := make([]Call, 5000)
	for i := range epoch {
		epoch[i] = Call{Key: fmt.Sprintf("k%02d", zipf.Uint64()), Idempotent: true}
	}
	for i := 0; i < 3; i++ {
		for _, c := range epoch {
			r.Route(c)
		}
		for _, mv := range r.Rebalance() {
			r.Commit(mv)
		}
	}
	return r, epoch
}

// rebalanceAllocs bounds a rebalance that plans no move on the
// skewReplicated strategy. The records, shard heat, masks, candidate
// lists and fence set are read in place or reused, and sorting
// allocates nothing, so the barrier allocates nothing at all.
const rebalanceAllocs = 0

// TestReplicatedRebalanceAllocs: after a 5,000-route epoch, a
// rebalance that plans no move allocates at most rebalanceAllocs. The
// epoch's routes, all of warm keys, allocate nothing themselves.
func TestReplicatedRebalanceAllocs(t *testing.T) {
	r, epoch := skewReplicated(t)
	got := testing.AllocsPerRun(10, func() {
		for _, c := range epoch {
			r.Route(c)
		}
		if moves := r.Rebalance(); len(moves) != 0 {
			t.Fatalf("rebalance planned %v, want no move", moves)
		}
	})
	if got > rebalanceAllocs {
		t.Fatalf("epoch and rebalance: %v allocs, want <= %d", got, rebalanceAllocs)
	}
}

// BenchmarkReplicatedRebalance runs epochs of the
// TestReplicatedRebalanceAllocs scenario, each its 5,000 routes and the
// rebalance that closes it, and reports the rebalance alone as
// ns/barrier. The routes allocate nothing, so allocs/op is the
// barrier's.
func BenchmarkReplicatedRebalance(b *testing.B) {
	r, epoch := skewReplicated(b)
	var barrier time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range epoch {
			r.Route(c)
		}
		start := time.Now()
		for _, mv := range r.Rebalance() {
			r.Commit(mv)
		}
		barrier += time.Since(start)
	}
	b.ReportMetric(float64(barrier.Nanoseconds())/float64(b.N), "ns/barrier")
}

// TestReplicatedConcurrent routes calls from several goroutines while
// barriers rebalance and commit, as live calls overlap a fleet's
// barrier path. Under -race it checks that the pool and the heat
// records are only shared under their locks.
func TestReplicatedConcurrent(t *testing.T) {
	r := NewReplicated(ReplicatedConfig{
		Options:     loadmgr.Options{Migrate: true, ImbalanceThreshold: 1.05, Seed: 1},
		MaxReplicas: 3})
	if err := r.Bind(4, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := "hot"
				if i%2 == 1 {
					key = fmt.Sprintf("k%d", (g+i)%9)
				}
				c := Call{Key: key, Idempotent: i%5 != 0, Tenant: []string{"", "a"}[i%2]}
				if sid := r.Route(c); sid < 0 || sid >= 4 {
					t.Errorf("Route(%+v) = %d", c, sid)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 40; round++ {
		for _, mv := range r.Rebalance() {
			r.Commit(mv)
		}
		r.HitDistribution()
		r.Imbalance()
	}
	wg.Wait()
}

// TestRebalanceKeepsKeyRecords: a rebalance that drains a cooled key's
// replicas, replicates a new hot key and migrates a background key
// keeps every per-key record. HitDistribution reads the same before and
// after it, and each key's KeyHeat after it is its window folded into
// its heat (alpha 0.5) on the shard it had, or on the migration's
// target.
func TestRebalanceKeepsKeyRecords(t *testing.T) {
	r := NewReplicated(ReplicatedConfig{
		Options:     loadmgr.Options{Migrate: true, ImbalanceThreshold: 1.05, Seed: 1},
		MaxReplicas: 3})
	if err := r.Bind(4, nil); err != nil {
		t.Fatal(err)
	}
	keys := []string{"hot", "warm", "hot2"}
	for c := 0; c < 8; c++ {
		keys = append(keys, fmt.Sprintf("bg%d", c))
	}
	// round routes hot, warm and hot2 idempotent calls and a few
	// non-idempotent background calls, counting each key's calls.
	round := func(hot, warm, hot2 int) map[string]int {
		win := map[string]int{}
		route := func(key string, idem bool, n int) {
			for i := 0; i < n; i++ {
				r.Route(Call{Key: key, Idempotent: idem})
				win[key]++
			}
		}
		route("hot", true, hot)
		route("warm", true, warm)
		route("hot2", true, hot2)
		for c := 0; c < 8; c++ {
			route(fmt.Sprintf("bg%d", c), false, c%3+1)
		}
		return win
	}
	for n := 0; n < 4; n++ {
		round(24, 24, 0)
		for _, mv := range r.Rebalance() {
			r.Commit(mv)
		}
	}
	// warm goes quiet and hot2 arrives.
	win := round(24, 0, 60)
	hits := r.HitDistribution()
	type heatAt struct {
		heat  float64
		shard int
	}
	before := map[string]heatAt{}
	for _, key := range keys {
		h, sid := keyHeat(&r.balancer, key)
		before[key] = heatAt{h, sid}
	}

	kinds := map[MoveKind]int{}
	migrated := map[string]int{}
	for _, mv := range r.Rebalance() {
		if !r.Commit(mv) {
			t.Fatalf("move %+v did not commit", mv)
		}
		kinds[mv.Kind]++
		if mv.Kind == MoveMigrate {
			migrated[mv.Key] = mv.To
		}
	}
	if kinds[MoveDrain] == 0 || kinds[MoveReplicate] == 0 || kinds[MoveMigrate] == 0 {
		t.Fatalf("rebalance committed %v, want drains, replicas and migrations", kinds)
	}

	if got := r.HitDistribution(); !reflect.DeepEqual(got, hits) {
		t.Fatalf("HitDistribution after the rebalance = %v, before %v", got, hits)
	}
	if len(hits["hot"]) != 3 || len(hits["warm"]) != 3 {
		t.Fatalf("HitDistribution = %v, want hot and warm served from 3 shards each", hits)
	}
	for _, key := range keys {
		b := before[key]
		want := heatAt{0.5*float64(win[key]) + 0.5*b.heat, b.shard}
		if to, ok := migrated[key]; ok {
			want.shard = to
		}
		if h, sid := keyHeat(&r.balancer, key); h != want.heat || sid != want.shard {
			t.Fatalf("KeyHeat(%s) = (%v, %d) after the rebalance, want (%v, %d)", key, h, sid, want.heat, want.shard)
		}
	}
}
