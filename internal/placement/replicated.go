package placement

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"repro/internal/loadmgr"
)

// DefaultReplicaBudget bounds replica-set changes (adds + drops) per
// rebalance round.
const DefaultReplicaBudget = 4

// DefaultTargetFraction is the per-replica heat target: replicate until
// each replica's share of the key sits at or below half the mean shard
// heat, leaving every replica shard headroom for its co-resident keys.
const DefaultTargetFraction = 0.5

// ReplicatedConfig tunes the Replicated strategy.
type ReplicatedConfig struct {
	// Options tunes the underlying heat records and migrator (alpha,
	// imbalance threshold, per-round move bound, cooldown, seed).
	// Options.Migrate additionally enables hot-key migration of
	// unreplicated keys at barriers; without it the strategy only
	// replicates — the A/B knob separating the two mechanisms.
	Options loadmgr.Options
	// MaxReplicas caps one key's replica set (0 = the shard count).
	MaxReplicas int
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
// idempotent call counts into the idempotent half of each key's heat
// record and sizes each key's replica set so no replica carries more
// than DefaultTargetFraction x the mean shard heat (a key a single
// average shard absorbs whole never replicates), emitting bounded
// MoveReplicate/MoveDrain moves, coldest shard first. Keys holding
// replicas are fenced from the migrator (their placement is the
// replica set); with Options.Migrate set, everything left over
// rebalances exactly like CostAware — without it the strategy only
// replicates.
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
	wantMax int

	// Barrier scratch, reused by every Rebalance: the sizing candidates,
	// the pool's replicated keys, one key's replica set, and the keys
	// fenced from the migrator.
	idem    []keyIdemHeat
	repKeys []string
	cur     []int
	skip    map[string]bool
}

// NewReplicated builds a replicating strategy.
func NewReplicated(cfg ReplicatedConfig) *Replicated {
	return &Replicated{
		balancer:    newBalancer(cfg.Options, !cfg.HeatOnly),
		maxReplicas: cfg.MaxReplicas,
		wantMax:     cfg.MaxReplicas,
		skip:        map[string]bool{},
	}
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
// An idempotent call takes the pool's lock and then the records'.
func (r *Replicated) Route(c Call) int {
	if !c.Idempotent {
		return r.balancer.Route(c)
	}
	var buf [8]int // a set of up to 8 replicas is read without allocating
	sid, reps := r.pool.GetReplicas(c.Key, buf[:0])
	r.mu.Lock()
	k := r.recLocked(c.Key)
	k.idemWin++
	if len(reps) > 1 {
		sid = reps[int(k.rr%uint64(len(reps)))]
		k.rr++
		if sid >= len(k.hits) {
			k.hits = append(k.hits, make([]uint64, sid+1-len(k.hits))...)
		}
		k.hits[sid]++
	}
	if sid < len(r.shardWin) {
		r.countLocked(k, c.Tenant, sid, 1)
	}
	r.mu.Unlock()
	return sid
}

// Rebalance implements Placement: one fold of the round, replica
// sizing, then — when Options.Migrate is set — ordinary migration over
// the unreplicated remainder. Without it the strategy replicates only,
// the A/B knob that isolates replication's contribution from
// migration's.
func (r *Replicated) Rebalance() []Move {
	r.mask = r.pool.appendUnavailable(r.mask[:0])
	r.repKeys = r.pool.appendReplicatedKeys(r.repKeys[:0])
	r.mu.Lock()
	r.idem = r.fold(r.idem[:0])
	// Keys whose heat decayed away but still hold replicas must stay in
	// the sweep (at zero heat, so they sort behind every live key):
	// otherwise a key that cooled while hotter keys consumed the budget
	// would keep its replica sessions forever.
	for _, key := range r.repKeys {
		if k := r.keys[key]; k == nil || k.idemHeat == 0 {
			r.idem = append(r.idem, keyIdemHeat{key, 0})
		}
	}
	// Mean shard heat over *live* shards: a dead or draining shard
	// neither carries heat forward nor counts as capacity, so replica
	// sizing after a kill or mid-drain spreads keys across what actually
	// remains.
	var total float64
	live := 0
	for i, v := range r.shardHeat {
		if i < len(r.mask) && r.mask[i] {
			continue
		}
		total += v
		live++
	}
	r.mu.Unlock()
	mean := 0.0
	if live > 0 {
		mean = total / float64(live)
	}
	moves := r.planReplicas(mean)
	if r.opts.Migrate {
		r.mu.Lock()
		moves = r.planMigrations(moves, r.skip)
		r.mu.Unlock()
	}
	return moves
}

// planReplicas sizes every candidate key's replica set against the
// mean shard heat and returns bounded add/drop moves, filling r.skip
// with the fence set for the migrator: every key that holds (or is
// about to hold) replicas.
func (r *Replicated) planReplicas(mean float64) []Move {
	// Hottest first, key on ties: a total order independent of map
	// iteration, like the migrator's candidate sort.
	slices.SortFunc(r.idem, func(x, y keyIdemHeat) int {
		if c := cmp.Compare(y.heat, x.heat); c != 0 {
			return c
		}
		return strings.Compare(x.key, y.key)
	})
	var moves []Move
	budget := DefaultReplicaBudget
	clear(r.skip)
	for _, c := range r.idem {
		cur := r.pool.AppendReplicas(r.cur[:0], c.key)
		r.cur = cur
		if len(cur) == 0 {
			continue // released since last seen
		}
		want := 1
		if mean > 0 {
			// Enough replicas that each carries at most the target
			// fraction of the mean shard heat. A key one average shard
			// absorbs whole (heat <= mean) never replicates — fan-out
			// only pays once a single key outgrows a shard.
			if c.heat > mean {
				want = int(math.Ceil(c.heat / (mean * DefaultTargetFraction)))
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
			r.skip[c.key] = true
		}
	}
	return moves
}

// ReplicaHit is one shard's share of a replicated key's idempotent
// traffic.
type ReplicaHit struct {
	Shard int
	Calls uint64
}

// HitDistribution returns, per replicated key whose idempotent heat is
// tracked, how many idempotent calls each shard served (sorted by
// shard), the observability feed for the bench layer's per-replica
// breakdown.
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
