package placement

// minHeat is the EWMA floor below which a half of a key's heat record
// is dropped, so a long-lived strategy does not keep every key it has
// seen.
const minHeat = 1e-3

// keyRec is one key's heat record, found with one lookup per call.
// Heat advances in rounds, one per rebalance barrier, so like
// everything else under fleet.RunPlan it is a pure function of the
// request sequence.
//
// The placement half (heat, win, shard, tenant) is what the migrator
// plans from; a key has it from its first recorded call or rebind
// until its heat decays below minHeat. The idempotent half (idemWin,
// idemHeat, rr, hits) is what Replicated sizes replica sets and
// rotates calls from; a key has it from its first idempotent call
// until its folded heat decays below minHeat, which resets the cursor
// and clears the hits. The record goes when both halves have.
type keyRec struct {
	heat float64 // EWMA calls/round; 0 while untracked
	win  float64 // current round's calls
	// shard is the key's shard as the heat sees it, -1 when unknown.
	shard int
	// tenant is the QoS class the key last called under ("" when
	// untenanted).
	tenant string

	// idemWin counts this round's idempotent calls; idemHeat is their
	// folded EWMA.
	idemWin, idemHeat float64
	// rr is the round-robin cursor over the replica set.
	rr uint64
	// hits counts, by shard, the idempotent calls served while the key
	// was replicated: the per-replica hit distribution the bench layer
	// records.
	hits []uint64
}

// recLocked returns key's record, making an empty one for a new key.
// Caller holds b.mu.
func (b *balancer) recLocked(key string) *keyRec {
	k := b.keys[key]
	if k == nil {
		k = &keyRec{shard: -1}
		b.keys[key] = k
	}
	return k
}

// record counts n calls of key routed to shard, under the QoS class
// tn ("" when untenanted), into the current round.
func (b *balancer) record(key, tn string, shard int, n float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if shard >= 0 && shard < len(b.shardWin) {
		b.countLocked(b.recLocked(key), tn, shard, n)
	}
}

// countLocked is record for a key whose record the caller holds, with
// shard in range. A tenanted call also feeds its class's demand and
// tags the key with it, which is what lets the migrator tell an
// aggressor's keys from a victim's. Caller holds b.mu.
func (b *balancer) countLocked(k *keyRec, tn string, shard int, n float64) {
	k.win += n
	b.shardWin[shard] += n
	k.shard = shard
	if tn != "" {
		k.tenant = tn
		b.tenantWin[tn] += n
	}
}

// keyIdemHeat is one key's idempotent heat, for replica sizing.
type keyIdemHeat struct {
	key  string
	heat float64
}

// fold closes the round in one pass over the records: every key's,
// shard's and tenant's window folds into its EWMA, windows reset, and
// a half whose heat decayed below minHeat is dropped. It appends the
// keys whose idempotent heat survived to idem and returns it. Caller
// holds b.mu.
func (b *balancer) fold(idem []keyIdemHeat) []keyIdemHeat {
	alpha := b.opts.Alpha
	for key, k := range b.keys {
		k.foldPlacement(alpha)
		if k.idemWin > 0 || k.idemHeat > 0 {
			if k.idemWin > 0 {
				k.idemHeat = alpha*k.idemWin + (1-alpha)*k.idemHeat
				k.idemWin = 0
			} else {
				// No calls this round: decay toward the drop floor.
				k.idemHeat *= 1 - alpha
			}
			if k.idemHeat < minHeat {
				k.idemHeat, k.rr = 0, 0
				clear(k.hits)
			} else {
				idem = append(idem, keyIdemHeat{key, k.idemHeat})
			}
		}
		if k.heat == 0 && k.shard < 0 && k.idemHeat == 0 {
			delete(b.keys, key)
		}
	}
	for i, heat := range b.shardHeat {
		b.shardHeat[i] = alpha*b.shardWin[i] + (1-alpha)*heat
		b.shardWin[i] = 0
	}
	for tn, heat := range b.tenantHeat {
		next := alpha*b.tenantWin[tn] + (1-alpha)*heat
		if next < minHeat {
			delete(b.tenantHeat, tn)
			continue
		}
		b.tenantHeat[tn] = next
	}
	for tn, win := range b.tenantWin {
		if _, known := b.tenantHeat[tn]; known || win <= 0 {
			continue
		}
		if next := alpha * win; next >= minHeat {
			b.tenantHeat[tn] = next
		}
	}
	clear(b.tenantWin)
	return idem
}

// foldPlacement folds the placement half's window into its heat,
// forgetting the key's shard and tenant once the heat is too faint to
// track.
func (k *keyRec) foldPlacement(alpha float64) {
	win := k.win
	k.win = 0
	if k.heat > 0 {
		if next := alpha*win + (1-alpha)*k.heat; next >= minHeat {
			k.heat = next
			return
		}
		k.heat, k.shard, k.tenant = 0, -1, ""
	}
	if win > 0 {
		if next := alpha * win; next >= minHeat {
			k.heat = next
		} else {
			// Too faint to track: drop the placement the call left.
			k.shard, k.tenant = -1, ""
		}
	}
}

// rebind moves key's heat to shard `to`, mirroring a migration or a
// failover: the key's EWMA leaves its old shard's aggregate and joins
// the new one, so the very next imbalance reading reflects the move
// instead of waiting a full decay cycle.
func (b *balancer) rebind(key string, to int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rebindLocked(key, to)
}

// rebindLocked is rebind for a caller holding b.mu.
func (b *balancer) rebindLocked(key string, to int) {
	if to < 0 || to >= len(b.shardHeat) {
		return
	}
	k := b.recLocked(key)
	from := k.shard
	if from < 0 || from == to {
		k.shard = to
		return
	}
	heat := k.heat
	b.shardHeat[from] -= heat
	if b.shardHeat[from] < 0 {
		b.shardHeat[from] = 0
	}
	b.shardHeat[to] += heat
	// Any un-folded window counts move too: they were routed to the old
	// shard, but the key will answer from the new one from now on.
	if win := k.win; win > 0 {
		b.shardWin[from] -= win
		if b.shardWin[from] < 0 {
			b.shardWin[from] = 0
		}
		b.shardWin[to] += win
	}
	k.shard = to
}

// Imbalance is max shard heat over mean shard heat: 1 is perfect
// balance, N (the shard count) is everything on one shard, and 0 means
// the fleet has seen no heat at all. For observability via the
// concrete strategy types.
func (b *balancer) Imbalance() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var max, sum float64
	for _, v := range b.shardHeat {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum <= 0 || len(b.shardHeat) == 0 {
		return 0
	}
	return max / (sum / float64(len(b.shardHeat)))
}
