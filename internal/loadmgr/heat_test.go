package loadmgr

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestHeatEWMAFold(t *testing.T) {
	h := NewHeatTracker(2, 0.5)
	for i := 0; i < 8; i++ {
		h.Record("hot", 0, 1)
	}
	h.Record("cold", 1, 2)
	h.Advance()

	if heat, sid := h.KeyHeat("hot"); !almost(heat, 4) || sid != 0 {
		t.Fatalf("hot after round 1 = (%v, %d), want (4, 0)", heat, sid)
	}
	if heat, sid := h.KeyHeat("cold"); !almost(heat, 1) || sid != 1 {
		t.Fatalf("cold after round 1 = (%v, %d), want (1, 1)", heat, sid)
	}
	sh := h.ShardHeat()
	if !almost(sh[0], 4) || !almost(sh[1], 1) {
		t.Fatalf("shard heat = %v, want [4 1]", sh)
	}

	// A silent round halves everything (alpha 0.5, zero window).
	h.Advance()
	if heat, _ := h.KeyHeat("hot"); !almost(heat, 2) {
		t.Fatalf("hot after silent round = %v, want 2", heat)
	}
	sh = h.ShardHeat()
	if !almost(sh[0], 2) || !almost(sh[1], 0.5) {
		t.Fatalf("shard heat after silent round = %v, want [2 0.5]", sh)
	}
}

func TestHeatDecayForgetsKeys(t *testing.T) {
	h := NewHeatTracker(1, 0.5)
	h.Record("once", 0, 1)
	h.Advance()
	for i := 0; i < 20; i++ {
		h.Advance()
	}
	if heat, sid := h.KeyHeat("once"); heat != 0 || sid != -1 {
		t.Fatalf("decayed key still tracked: (%v, %d)", heat, sid)
	}
	if got := len(h.keys); got != 0 {
		t.Fatalf("tracker retains %d key records after full decay", got)
	}
}

func TestImbalanceScore(t *testing.T) {
	h := NewHeatTracker(4, 0.5)
	if s := h.ImbalanceScore(); s != 0 {
		t.Fatalf("imbalance of silent fleet = %v, want 0", s)
	}
	for i := 0; i < 4; i++ {
		h.Record("k", 0, 1) // everything on shard 0
	}
	h.Advance()
	if s := h.ImbalanceScore(); !almost(s, 4) {
		t.Fatalf("one-shard imbalance = %v, want 4 (the shard count)", s)
	}

	h2 := NewHeatTracker(2, 1.0)
	h2.Record("a", 0, 3)
	h2.Record("b", 1, 3)
	h2.Advance()
	if s := h2.ImbalanceScore(); !almost(s, 1) {
		t.Fatalf("balanced imbalance = %v, want 1", s)
	}
}

func TestHeatRebindMovesAggregates(t *testing.T) {
	h := NewHeatTracker(2, 1.0)
	h.Record("k", 0, 6)
	h.Record("other", 0, 2)
	h.Advance()

	h.Rebind("k", 1)
	sh := h.ShardHeat()
	if !almost(sh[0], 2) || !almost(sh[1], 6) {
		t.Fatalf("shard heat after rebind = %v, want [2 6]", sh)
	}
	if _, sid := h.KeyHeat("k"); sid != 1 {
		t.Fatalf("key shard after rebind = %d, want 1", sid)
	}

	// Window counts recorded before the rebind move along with the key.
	h.Record("k", 1, 4)
	h.Advance()
	if heat, _ := h.KeyHeat("k"); !almost(heat, 4) {
		t.Fatalf("key heat after post-rebind round = %v, want 4", heat)
	}
}

func TestRecordIgnoresBadShard(t *testing.T) {
	h := NewHeatTracker(2, 0.5)
	h.Record("k", -1, 1)
	h.Record("k", 7, 1)
	h.Advance()
	if heat, _ := h.KeyHeat("k"); heat != 0 {
		t.Fatalf("out-of-range record leaked heat %v", heat)
	}
}
