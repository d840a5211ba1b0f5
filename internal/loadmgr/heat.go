package loadmgr

import "sync"

// minHeat is the EWMA floor below which a key's entry is dropped, so a
// long-lived tracker does not retain every key ever seen.
const minHeat = 1e-3

// HeatTracker maintains EWMA call-rate estimates per client key and
// per shard. Calls are counted into the current round's window
// (Record); Advance folds the window into the moving averages and
// opens the next round. Rounds align with the fleet's rebalance
// barriers, so heat — like everything else under RunPlan — is a pure
// function of the request sequence.
type HeatTracker struct {
	mu    sync.Mutex
	alpha float64

	// keys holds every key's heat state, found with one lookup.
	keys map[string]*keyState

	// Tenant heat (QoS): per-tenant EWMA demand. Populated only by
	// RecordTenant with a non-empty tenant, so untenanted fleets never
	// touch these maps.
	tenantHeat map[string]float64
	tenantWin  map[string]float64

	shardHeat []float64 // EWMA calls/round per shard
	shardWin  []float64 // current round's counts per shard

	rounds uint64
}

// keyState is one key's heat. A key has one while the tracker knows
// its shard or its heat: from its first Record or Rebind until its heat
// decays below minHeat.
type keyState struct {
	heat float64 // EWMA calls/round; 0 while untracked
	win  float64 // current round's counts
	// shard is the tracker's view of the key's placement, -1 when
	// unknown.
	shard int
	// tenant is the QoS class the key last called under ("" when
	// untenanted).
	tenant string
}

// state returns key's record, making an empty one for a new key.
// Caller holds h.mu.
func (h *HeatTracker) state(key string) *keyState {
	k := h.keys[key]
	if k == nil {
		k = &keyState{shard: -1}
		h.keys[key] = k
	}
	return k
}

// NewHeatTracker builds a tracker over the given shard count. alpha in
// (0, 1] is the EWMA weight of the newest round.
func NewHeatTracker(shards int, alpha float64) *HeatTracker {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &HeatTracker{
		alpha:      alpha,
		keys:       map[string]*keyState{},
		tenantHeat: map[string]float64{},
		tenantWin:  map[string]float64{},
		shardHeat:  make([]float64, shards),
		shardWin:   make([]float64, shards),
	}
}

// Record counts n calls for key routed to shard in the current round.
func (h *HeatTracker) Record(key string, shard int, n float64) {
	h.RecordTenant(key, "", shard, n)
}

// RecordTenant is Record with the tenant class the call ran under.
// Empty tenant is plain Record; otherwise the call also feeds the
// tenant's demand EWMA and tags the key with its latest class, which
// is what lets the migrator tell an aggressor's keys from a victim's.
func (h *HeatTracker) RecordTenant(key, tenantName string, shard int, n float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if shard < 0 || shard >= len(h.shardWin) {
		return
	}
	k := h.state(key)
	k.win += n
	h.shardWin[shard] += n
	k.shard = shard
	if tenantName != "" {
		k.tenant = tenantName
		h.tenantWin[tenantName] += n
	}
}

// Advance closes the current round: every key's and shard's window
// count folds into its EWMA, windows reset, and keys whose heat
// decayed below the retention floor are forgotten.
func (h *HeatTracker) Advance() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for key, k := range h.keys {
		win := k.win
		k.win = 0
		if k.heat > 0 {
			if next := h.alpha*win + (1-h.alpha)*k.heat; next >= minHeat {
				k.heat = next
				continue
			}
			k.heat, k.shard, k.tenant = 0, -1, ""
		}
		if win > 0 {
			if next := h.alpha * win; next >= minHeat {
				k.heat = next
			} else {
				// Too faint to track: drop the placement Record left.
				k.shard, k.tenant = -1, ""
			}
		}
		if k.heat == 0 && k.shard < 0 {
			delete(h.keys, key)
		}
	}
	for i, heat := range h.shardHeat {
		h.shardHeat[i] = h.alpha*h.shardWin[i] + (1-h.alpha)*heat
		h.shardWin[i] = 0
	}
	for tn, heat := range h.tenantHeat {
		next := h.alpha*h.tenantWin[tn] + (1-h.alpha)*heat
		if next < minHeat {
			delete(h.tenantHeat, tn)
			continue
		}
		h.tenantHeat[tn] = next
	}
	for tn, win := range h.tenantWin {
		if _, known := h.tenantHeat[tn]; known || win <= 0 {
			continue
		}
		if next := h.alpha * win; next >= minHeat {
			h.tenantHeat[tn] = next
		}
	}
	clear(h.tenantWin)
	h.rounds++
}

// AddShard grows the tracker by one shard with zero heat — the
// elastic-resize hook. The new shard accumulates heat from its first
// Record; existing aggregates are untouched.
func (h *HeatTracker) AddShard() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.shardHeat = append(h.shardHeat, 0)
	h.shardWin = append(h.shardWin, 0)
}

// Rounds returns how many rounds have been closed.
func (h *HeatTracker) Rounds() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rounds
}

// ShardHeat returns a snapshot of per-shard EWMA heat.
func (h *HeatTracker) ShardHeat() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(h.shardHeat))
	copy(out, h.shardHeat)
	return out
}

// KeyHeat returns key's EWMA heat and the shard the tracker believes
// it lives on (-1 when unknown).
func (h *HeatTracker) KeyHeat(key string) (heat float64, shard int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if k := h.keys[key]; k != nil {
		return k.heat, k.shard
	}
	return 0, -1
}

// TenantHeat returns a snapshot of per-tenant EWMA demand. Empty on
// untenanted fleets.
func (h *HeatTracker) TenantHeat() map[string]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]float64, len(h.tenantHeat))
	for tn, v := range h.tenantHeat {
		out[tn] = v
	}
	return out
}

// KeyTenant returns the tenant class key last called under ("" when
// untracked or untenanted).
func (h *HeatTracker) KeyTenant(key string) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if k := h.keys[key]; k != nil {
		return k.tenant
	}
	return ""
}

// ImbalanceScore is max shard heat over mean shard heat: 1 is perfect
// balance, N (the shard count) is everything on one shard. Returns 0
// when the fleet has seen no heat at all.
func (h *HeatTracker) ImbalanceScore() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return imbalance(h.shardHeat)
}

// imbalance computes max/mean over a heat vector.
func imbalance(heat []float64) float64 {
	var max, sum float64
	for _, v := range heat {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum <= 0 || len(heat) == 0 {
		return 0
	}
	return max / (sum / float64(len(heat)))
}

// Rebind moves key's heat (and the tracker's placement view) to shard
// `to`, mirroring a migration: the key's EWMA leaves its old shard's
// aggregate and joins the new one, so the very next imbalance reading
// reflects the move instead of waiting a full decay cycle.
func (h *HeatTracker) Rebind(key string, to int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if to < 0 || to >= len(h.shardHeat) {
		return
	}
	k := h.state(key)
	from := k.shard
	if from < 0 || from == to {
		k.shard = to
		return
	}
	heat := k.heat
	h.shardHeat[from] -= heat
	if h.shardHeat[from] < 0 {
		h.shardHeat[from] = 0
	}
	h.shardHeat[to] += heat
	// Any un-folded window counts move too: they were routed to the old
	// shard, but the key will answer from the new one from now on.
	if win := k.win; win > 0 {
		h.shardWin[from] -= win
		if h.shardWin[from] < 0 {
			h.shardWin[from] = 0
		}
		h.shardWin[to] += win
	}
	k.shard = to
}

// keysOn returns the keys currently placed on shard, for the migrator.
// Caller must hold no lock; the snapshot is taken under the tracker's.
func (h *HeatTracker) keysOn(shard int) map[string]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := map[string]float64{}
	for key, k := range h.keys {
		if k.shard == shard {
			out[key] = k.heat
		}
	}
	return out
}
