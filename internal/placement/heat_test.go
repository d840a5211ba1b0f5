package placement

import (
	"math"
	"testing"

	"repro/internal/loadmgr"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// heatBalancer binds a heat-only balancer over shards with the given
// alpha, for driving its records directly.
func heatBalancer(tb testing.TB, shards int, alpha float64) *balancer {
	return tunedBalancer(tb, shards, loadmgr.Options{Alpha: alpha})
}

// tunedBalancer binds a heat-only balancer over shards with opts.
func tunedBalancer(tb testing.TB, shards int, opts loadmgr.Options) *balancer {
	tb.Helper()
	b := newBalancer(opts, false)
	if err := b.bind(shards, nil); err != nil {
		tb.Fatal(err)
	}
	return &b
}

// advance closes b's heat round, as every Rebalance does first.
func advance(b *balancer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fold(nil)
}

// keyHeat returns key's placement heat and the shard the heat puts it
// on (-1 when unknown).
func keyHeat(b *balancer, key string) (float64, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if k := b.keys[key]; k != nil {
		return k.heat, k.shard
	}
	return 0, -1
}

// keyTenant returns the tenant class key last called under ("" when
// untracked or untenanted).
func keyTenant(b *balancer, key string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if k := b.keys[key]; k != nil {
		return k.tenant
	}
	return ""
}

// shardHeat returns a copy of b's per-shard heat.
func shardHeat(b *balancer) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.shardHeat...)
}

func TestHeatEWMAFold(t *testing.T) {
	h := heatBalancer(t, 2, 0.5)
	for i := 0; i < 8; i++ {
		h.record("hot", "", 0, 1)
	}
	h.record("cold", "", 1, 2)
	advance(h)

	if heat, sid := keyHeat(h, "hot"); !almost(heat, 4) || sid != 0 {
		t.Fatalf("hot after round 1 = (%v, %d), want (4, 0)", heat, sid)
	}
	if heat, sid := keyHeat(h, "cold"); !almost(heat, 1) || sid != 1 {
		t.Fatalf("cold after round 1 = (%v, %d), want (1, 1)", heat, sid)
	}
	sh := shardHeat(h)
	if !almost(sh[0], 4) || !almost(sh[1], 1) {
		t.Fatalf("shard heat = %v, want [4 1]", sh)
	}

	// A silent round halves everything (alpha 0.5, zero window).
	advance(h)
	if heat, _ := keyHeat(h, "hot"); !almost(heat, 2) {
		t.Fatalf("hot after silent round = %v, want 2", heat)
	}
	sh = shardHeat(h)
	if !almost(sh[0], 2) || !almost(sh[1], 0.5) {
		t.Fatalf("shard heat after silent round = %v, want [2 0.5]", sh)
	}
}

func TestHeatDecayForgetsKeys(t *testing.T) {
	h := heatBalancer(t, 1, 0.5)
	h.record("once", "", 0, 1)
	advance(h)
	for i := 0; i < 20; i++ {
		advance(h)
	}
	if heat, sid := keyHeat(h, "once"); heat != 0 || sid != -1 {
		t.Fatalf("decayed key still tracked: (%v, %d)", heat, sid)
	}
	if got := len(h.keys); got != 0 {
		t.Fatalf("balancer retains %d key records after full decay", got)
	}
}

func TestImbalanceScore(t *testing.T) {
	h := heatBalancer(t, 4, 0.5)
	if s := h.Imbalance(); s != 0 {
		t.Fatalf("imbalance of silent fleet = %v, want 0", s)
	}
	for i := 0; i < 4; i++ {
		h.record("k", "", 0, 1) // everything on shard 0
	}
	advance(h)
	if s := h.Imbalance(); !almost(s, 4) {
		t.Fatalf("one-shard imbalance = %v, want 4 (the shard count)", s)
	}

	h2 := heatBalancer(t, 2, 1.0)
	h2.record("a", "", 0, 3)
	h2.record("b", "", 1, 3)
	advance(h2)
	if s := h2.Imbalance(); !almost(s, 1) {
		t.Fatalf("balanced imbalance = %v, want 1", s)
	}
}

func TestHeatRebindMovesAggregates(t *testing.T) {
	h := heatBalancer(t, 2, 1.0)
	h.record("k", "", 0, 6)
	h.record("other", "", 0, 2)
	advance(h)

	h.rebind("k", 1)
	sh := shardHeat(h)
	if !almost(sh[0], 2) || !almost(sh[1], 6) {
		t.Fatalf("shard heat after rebind = %v, want [2 6]", sh)
	}
	if _, sid := keyHeat(h, "k"); sid != 1 {
		t.Fatalf("key shard after rebind = %d, want 1", sid)
	}

	// Window counts recorded before the rebind move along with the key.
	h.record("k", "", 1, 4)
	advance(h)
	if heat, _ := keyHeat(h, "k"); !almost(heat, 4) {
		t.Fatalf("key heat after post-rebind round = %v, want 4", heat)
	}
}

func TestRecordIgnoresBadShard(t *testing.T) {
	h := heatBalancer(t, 2, 0.5)
	h.record("k", "", -1, 1)
	h.record("k", "", 7, 1)
	advance(h)
	if heat, _ := keyHeat(h, "k"); heat != 0 {
		t.Fatalf("out-of-range record leaked heat %v", heat)
	}
}

func TestRecordTenantHeat(t *testing.T) {
	h := heatBalancer(t, 2, 0.5)
	h.record("a1", "agg", 0, 6)
	h.record("v1", "vic", 1, 2)
	h.record("plain", "", 0, 1) // untenanted traffic stays untagged
	advance(h)

	th := h.tenantHeat
	if got := th["agg"]; math.Abs(got-3) > 1e-9 {
		t.Fatalf("agg heat = %v, want 3", got)
	}
	if got := th["vic"]; math.Abs(got-1) > 1e-9 {
		t.Fatalf("vic heat = %v, want 1", got)
	}
	if _, ok := th[""]; ok {
		t.Fatal("untenanted traffic leaked into tenant heat")
	}
	if got := keyTenant(h, "a1"); got != "agg" {
		t.Fatalf("keyTenant(a1) = %q", got)
	}
	if got := keyTenant(h, "plain"); got != "" {
		t.Fatalf("keyTenant(plain) = %q, want empty", got)
	}

	// Idle tenants decay out like idle keys.
	for i := 0; i < 20; i++ {
		advance(h)
	}
	if th := h.tenantHeat; len(th) != 0 {
		t.Fatalf("idle tenant heat not reclaimed: %v", th)
	}
	if got := keyTenant(h, "a1"); got != "" {
		t.Fatalf("decayed key kept its tenant tag: %q", got)
	}
}

// TestKeyRecordHalvesDecayApart: a replicated key that keeps calling,
// but no longer idempotently, loses the idempotent half of its record
// (cursor back to 0, hits cleared, gone from HitDistribution) while the
// placement half keeps its heat and shard.
func TestKeyRecordHalvesDecayApart(t *testing.T) {
	r := replicatedPair(t)
	primary, _ := r.Lookup("hot")
	for i := 0; i < 3; i++ {
		r.Route(Call{Key: "hot", Idempotent: true})
	}
	if len(r.HitDistribution()["hot"]) != 2 {
		t.Fatalf("HitDistribution = %v, want hot served from both shards", r.HitDistribution())
	}
	// Only non-idempotent calls from here on: the idempotent heat halves
	// every barrier until it drops under the floor.
	for round := 0; round < 40; round++ {
		for i := 0; i < 8; i++ {
			r.Route(Call{Key: "hot"})
		}
		for _, mv := range r.Rebalance() {
			r.Commit(mv)
		}
	}
	r.mu.Lock()
	k := r.keys["hot"]
	if k == nil {
		r.mu.Unlock()
		t.Fatal("hot lost its record, want its placement half kept")
	}
	idemHeat, rr, hits := k.idemHeat, k.rr, append([]uint64(nil), k.hits...)
	r.mu.Unlock()
	if idemHeat != 0 || rr != 0 {
		t.Fatalf("idempotent half = (heat %v, cursor %d), want (0, 0)", idemHeat, rr)
	}
	for sid, n := range hits {
		if n != 0 {
			t.Fatalf("hits[%d] = %d after the idempotent half decayed, want 0", sid, n)
		}
	}
	if got, ok := r.HitDistribution()["hot"]; ok {
		t.Fatalf("HitDistribution[hot] = %v, want no row", got)
	}
	if heat, sid := keyHeat(&r.balancer, "hot"); !almost(heat, 8) || sid != primary {
		t.Fatalf("placement half = (%v, %d), want (8, %d)", heat, sid, primary)
	}
	if got := r.Replicas("hot"); len(got) != 1 || got[0] != primary {
		t.Fatalf("Replicas(hot) = %v, want the primary %d alone", got, primary)
	}
	// A fresh idempotent call starts a new idempotent half.
	r.Route(Call{Key: "hot", Idempotent: true})
	r.mu.Lock()
	win := r.keys["hot"].idemWin
	r.mu.Unlock()
	if win != 1 {
		t.Fatalf("idempotent window after a fresh call = %v, want 1", win)
	}
}
