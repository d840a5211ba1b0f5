package placement

import (
	"math"
	"sort"
	"sync"

	"repro/internal/loadmgr"
)

// DefaultReplicaBudget bounds replica-set changes (adds + drops) per
// rebalance round when ReplicatedConfig.Budget is zero.
const DefaultReplicaBudget = 4

// DefaultTargetFraction is the per-replica heat target when
// ReplicatedConfig.TargetFraction is zero: replicate until each
// replica's share of the key sits at or below half the mean shard
// heat, leaving every replica shard headroom for its co-resident keys.
const DefaultTargetFraction = 0.5

// ReplicatedConfig tunes the Replicated strategy.
type ReplicatedConfig struct {
	// Options tunes the underlying heat tracker and migrator (alpha,
	// imbalance threshold, per-round move bound, cooldown, seed).
	// Options.Migrate additionally enables hot-key migration of
	// unreplicated keys at barriers; without it the strategy only
	// replicates — the A/B knob separating the two mechanisms.
	Options loadmgr.Options
	// MaxReplicas caps one key's replica set (0 = the shard count).
	MaxReplicas int
	// Budget bounds replica-set changes per rebalance round
	// (0 = DefaultReplicaBudget).
	Budget int
	// TargetFraction sizes replica sets: a key gets enough replicas
	// that each carries at most TargetFraction x the mean shard heat
	// (0 = DefaultTargetFraction). Smaller spreads hot keys wider.
	TargetFraction float64
	// HeatOnly makes the underlying migrator ignore backend cost
	// factors (the heat-only A/B baseline); replication itself is
	// unaffected.
	HeatOnly bool
}

// Replicated serves spec-idempotent hot keys from several shards at
// once, lifting the single-shard ceiling that caps even cost-aware
// migration once one key dominates the traffic.
//
// Routing: a replicated key's idempotent calls rotate round-robin over
// its replica set; non-idempotent calls (and every call of an
// unreplicated key) go to the primary. Idempotence is the consistency
// model — the module spec declares these functions side-effect-free,
// so N independent warm sessions return interchangeable answers and no
// replica coordination is needed.
//
// Rebalancing: at every barrier the strategy folds the round's
// idempotent call counts into a per-key EWMA and sizes each key's
// replica set so no replica carries more than TargetFraction x the
// mean shard heat (a key a single average shard absorbs whole never
// replicates), emitting bounded MoveReplicate/MoveDrain moves,
// coldest shard first. Keys holding replicas are fenced from the
// migrator (their placement is the replica set); with Options.Migrate
// set, everything left over rebalances exactly like CostAware —
// without it the strategy only replicates.
//
// Everything is deterministic given the Route/Rebalance sequence and
// the seed: candidates sort by heat then key, targets by weighted load
// then index, and the round-robin cursors advance in routing order.
type Replicated struct {
	balancer
	maxReplicas int
	// wantMax is the configured cap before the fleet-size clamp (<= 0 =
	// track the fleet), so an elastic fleet growing past the original
	// shard count raises maxReplicas with it.
	wantMax    int
	budget     int
	targetFrac float64

	mu sync.Mutex
	// keys holds the idempotent-call state of every key that has it,
	// found with one lookup per call.
	keys map[string]*idemKey
}

// idemKey is one key's idempotent-call state. A key has one from its
// first idempotent call until its folded heat decays below the drop
// floor.
type idemKey struct {
	// rr is the round-robin cursor over the replica set.
	rr uint64
	// win counts this round's idempotent calls; heat is the folded EWMA
	// the replica sizing runs on.
	win, heat float64
	// hits counts, by shard, the idempotent calls served while the key
	// was replicated: the per-replica hit distribution the bench layer
	// records.
	hits []uint64
}

// NewReplicated builds a replicating strategy.
func NewReplicated(cfg ReplicatedConfig) *Replicated {
	r := &Replicated{
		balancer:    newBalancer(cfg.Options, !cfg.HeatOnly),
		maxReplicas: cfg.MaxReplicas,
		wantMax:     cfg.MaxReplicas,
		budget:      cfg.Budget,
		targetFrac:  cfg.TargetFraction,
		keys:        map[string]*idemKey{},
	}
	if r.budget <= 0 {
		r.budget = DefaultReplicaBudget
	}
	if r.targetFrac <= 0 {
		r.targetFrac = DefaultTargetFraction
	}
	return r
}

// Bind implements Placement.
func (r *Replicated) Bind(shards int, costFactors []float64) error {
	if err := r.bind(shards, costFactors); err != nil {
		return err
	}
	if r.maxReplicas <= 0 || r.maxReplicas > shards {
		r.maxReplicas = shards
	}
	return nil
}

// OnShardUp implements Placement: grow the shared balancer state, then
// re-derive the replica cap — a fleet-tracking cap (MaxReplicas <= 0,
// or one the fleet size clamped at Bind) rises with the new shard, so
// hot keys can fan out onto added capacity.
func (r *Replicated) OnShardUp(shard int, costFactor float64) {
	r.balancer.OnShardUp(shard, costFactor)
	shards := len(r.pool.Load())
	if r.wantMax <= 0 || r.wantMax > shards {
		r.maxReplicas = shards
	} else {
		r.maxReplicas = r.wantMax
	}
}

// Route implements Placement: idempotent calls of a replicated key
// rotate over the replica set; everything else follows the primary.
func (r *Replicated) Route(c Call) int {
	if !c.Idempotent {
		return r.route(c)
	}
	var buf [8]int // a set of up to 8 replicas is read without allocating
	sid, reps := r.pool.GetReplicas(c.Key, buf[:0])
	r.mu.Lock()
	k := r.keys[c.Key]
	if k == nil {
		k = &idemKey{}
		r.keys[c.Key] = k
	}
	k.win++
	if len(reps) > 1 {
		sid = reps[int(k.rr%uint64(len(reps)))]
		k.rr++
		if sid >= len(k.hits) {
			k.hits = append(k.hits, make([]uint64, sid+1-len(k.hits))...)
		}
		k.hits[sid]++
	}
	r.mu.Unlock()
	r.heat.RecordTenant(c.Key, c.Tenant, sid, 1)
	return sid
}

// Rebalance implements Placement: replica sizing first, then — when
// Options.Migrate is set, matching the loadmgr semantics — ordinary
// migration over the unreplicated remainder. Without it the strategy
// replicates only, the A/B knob that isolates replication's
// contribution from migration's.
func (r *Replicated) Rebalance() []Move {
	r.heat.Advance()
	moves, skip := r.planReplicas()
	if r.opts.Migrate {
		moves = append(moves, r.planMigrations(skip)...)
	}
	return moves
}

// keyIdemHeat is one key's replicable-heat entry, for sizing.
type keyIdemHeat struct {
	key  string
	heat float64
}

// planReplicas folds the idempotent-call window, sizes every candidate
// key's replica set against the mean shard heat, and returns bounded
// add/drop moves plus the fence set for the migrator: every key that
// holds (or is about to hold) replicas.
func (r *Replicated) planReplicas() ([]Move, map[string]bool) {
	alpha := r.opts.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = loadmgr.DefaultAlpha
	}
	r.mu.Lock()
	cands := make([]keyIdemHeat, 0, len(r.keys))
	for key, k := range r.keys {
		if k.win > 0 {
			k.heat = alpha*k.win + (1-alpha)*k.heat
			k.win = 0
		} else {
			// No calls this round: decay toward the drop floor.
			k.heat *= 1 - alpha
		}
		if k.heat < 1e-3 {
			delete(r.keys, key)
			continue
		}
		cands = append(cands, keyIdemHeat{key, k.heat})
	}
	tracked := make(map[string]bool, len(cands))
	for _, c := range cands {
		tracked[c.key] = true
	}
	r.mu.Unlock()
	// Keys whose heat decayed away but still hold replicas must stay in
	// the sweep (at zero heat, so they sort behind every live key):
	// otherwise a key that cooled while hotter keys consumed the budget
	// would keep its replica sessions forever.
	for _, key := range r.pool.ReplicatedKeys() {
		if !tracked[key] {
			cands = append(cands, keyIdemHeat{key, 0})
		}
	}

	// Hottest first, key on ties: a total order independent of map
	// iteration, like the migrator's candidate sort.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].heat != cands[j].heat {
			return cands[i].heat > cands[j].heat
		}
		return cands[i].key < cands[j].key
	})

	// Mean shard heat over *live* shards: a dead or draining shard
	// neither carries heat forward nor counts as capacity, so replica
	// sizing after a kill or mid-drain spreads keys across what actually
	// remains.
	shardHeat := r.heat.ShardHeat()
	draining := r.pool.DrainingShards()
	var total float64
	live := 0
	for i, v := range shardHeat {
		if (i < len(r.down) && r.down[i]) || (i < len(draining) && draining[i]) {
			continue
		}
		total += v
		live++
	}
	mean := 0.0
	if live > 0 {
		mean = total / float64(live)
	}

	var moves []Move
	budget := r.budget
	skip := map[string]bool{}
	var cur []int
	for _, c := range cands {
		cur = r.pool.AppendReplicas(cur[:0], c.key)
		if len(cur) == 0 {
			continue // released since last seen
		}
		want := 1
		if mean > 0 {
			// Enough replicas that each carries at most targetFrac x the
			// mean shard heat. A key one average shard absorbs whole
			// (heat <= mean) never replicates — fan-out only pays once a
			// single key outgrows a shard.
			if c.heat > mean {
				want = int(math.Ceil(c.heat / (mean * r.targetFrac)))
			}
		}
		if want > r.maxReplicas {
			want = r.maxReplicas
		}
		if want < 1 {
			want = 1
		}
		serving := map[int]bool{}
		for _, sid := range cur {
			serving[sid] = true
		}
		n := len(cur)
		for n < want && budget > 0 {
			to, ok := r.pool.LeastLoadedExcluding(serving)
			if !ok {
				break
			}
			moves = append(moves, Move{Kind: MoveReplicate, Key: c.key, From: cur[0], To: to})
			serving[to] = true
			n++
			budget--
		}
		// Shrink from the back of the set (newest replica first), never
		// the primary: deterministic and drains the least-warmed copy.
		for n > want && n > 1 && budget > 0 {
			from := cur[n-1]
			moves = append(moves, Move{Kind: MoveDrain, Key: c.key, From: from, To: cur[0]})
			n--
			budget--
		}
		if n > 1 {
			skip[c.key] = true
		}
	}
	return moves, skip
}

// ReplicaHit is one shard's share of a replicated key's idempotent
// traffic.
type ReplicaHit struct {
	Shard int
	Calls uint64
}

// HitDistribution returns, per currently-tracked replicated key, how
// many idempotent calls each shard served (sorted by shard), the
// observability feed for the bench layer's per-replica breakdown.
func (r *Replicated) HitDistribution() map[string][]ReplicaHit {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]ReplicaHit{}
	for key, k := range r.keys {
		var row []ReplicaHit
		for sid, n := range k.hits {
			if n > 0 {
				row = append(row, ReplicaHit{Shard: sid, Calls: n})
			}
		}
		if row != nil {
			out[key] = row
		}
	}
	return out
}
