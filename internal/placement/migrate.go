package placement

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"repro/internal/loadmgr"
)

// errRebound rejects a second Bind of a single-use strategy instance.
var errRebound = errors.New("placement: strategy already bound to a fleet")

// balancer is the shared core of every heat-driven strategy: the
// sticky pool, one heat record per key fed from the routing path, and
// the bounded greedy migrator that turns heat into moves at rebalance
// barriers. HeatMigrate and CostAware differ only in whether the
// migrator sees the fleet's cost factors; Replicated layers replica
// fan-out on top.
//
// The pool and the records have a lock each, and no path holds both.
type balancer struct {
	opts loadmgr.Options // zero fields resolved to the loadmgr defaults
	pool *Pool
	// costw is the per-shard cost-factor vector the migrator weighs
	// heat by; nil balances raw heat (the heat-only A/B baseline). The
	// pool is always cost-weighted regardless — machine capacity is a
	// fact of allocation, cost-blind *migration* is the only knob under
	// test.
	costw   []float64
	useCost bool

	mu sync.Mutex
	// keys holds every key's heat record.
	keys map[string]*keyRec
	// shardHeat is each shard's EWMA calls/round, shardWin its current
	// round's calls.
	shardHeat, shardWin []float64
	// tenantHeat is each QoS class's EWMA demand, tenantWin its current
	// round's calls. Only tenanted calls fill them.
	tenantHeat, tenantWin map[string]float64

	// The migrator: a seeded rng for the tie-break among equally hot
	// candidates, the round count, and the round each recently migrated
	// key thaws at, so the planner cannot flap a key back and forth.
	rng      *rand.Rand
	round    uint64
	cooldown map[string]uint64
	// tweights is the QoS tenant weight table, sorted by tenant name so
	// the overshares sum in one order (nil = untenanted). When set,
	// candidates on the hot shard are ordered by their tenant's
	// overshare — demand share minus weight share — before heat, so an
	// aggressor's keys move (and churn sessions) before a victim's warm
	// keys are ever touched. With no weights every key ties at overshare
	// zero and the plan is the historical heat order bit for bit.
	tweights []tenantWeight

	// Barrier scratch, reused by every Rebalance: the shards that take
	// no new work (down or draining), the per-shard costs and the
	// migration candidates.
	mask  []bool
	cost  []float64
	cands []candidate
}

func newBalancer(opts loadmgr.Options, useCost bool) balancer {
	if opts.Alpha <= 0 || opts.Alpha > 1 {
		opts.Alpha = loadmgr.DefaultAlpha
	}
	if opts.ImbalanceThreshold <= 0 {
		opts.ImbalanceThreshold = loadmgr.DefaultImbalanceThreshold
	}
	if opts.MaxMovesPerRound <= 0 {
		opts.MaxMovesPerRound = loadmgr.DefaultMaxMovesPerRound
	}
	if opts.CooldownRounds <= 0 {
		opts.CooldownRounds = loadmgr.DefaultCooldownRounds
	}
	return balancer{opts: opts, useCost: useCost}
}

// bind builds the pool, the record table and the migrator for a fleet
// of `shards`.
func (b *balancer) bind(shards int, costFactors []float64) error {
	if b.pool != nil {
		return errRebound
	}
	w, err := bindFactors(shards, costFactors)
	if err != nil {
		return err
	}
	b.pool = NewWeightedPool(w)
	b.keys = map[string]*keyRec{}
	b.shardHeat = make([]float64, shards)
	b.shardWin = make([]float64, shards)
	b.tenantHeat = map[string]float64{}
	b.tenantWin = map[string]float64{}
	b.rng = rand.New(rand.NewSource(b.opts.Seed))
	b.cooldown = map[string]uint64{}
	if b.useCost {
		b.costw = w
	}
	return nil
}

// ObservePromotions implements PromoteObserver for every pool-backed
// heat strategy (HeatMigrate, CostAware, and Replicated inherit it
// through the embedded balancer). Must be called after Bind.
func (b *balancer) ObservePromotions(fn func(key string, from, to int)) {
	b.pool.SetObserver(fn)
}

// Route implements Placement, the shared hot path: sticky allocation
// plus the heat feed (tenant-tagged, so the migrator can bias by QoS
// class).
func (b *balancer) Route(c Call) int {
	sid := b.pool.Get(c.Key)
	b.record(c.Key, c.Tenant, sid, 1)
	return sid
}

// SetTenantWeights implements TenantAware: the QoS layer hands the
// migrator its tenant weight table so plans move aggressor keys first.
// Nil clears the bias. Must be called after Bind.
func (b *balancer) SetTenantWeights(weights map[string]int) {
	var w []tenantWeight
	for tn, v := range weights {
		w = append(w, tenantWeight{tn, v})
	}
	slices.SortFunc(w, func(x, y tenantWeight) int { return strings.Compare(x.name, y.name) })
	b.mu.Lock()
	b.tweights = w
	b.mu.Unlock()
}

// tenantWeight is one QoS class's weight.
type tenantWeight struct {
	name   string
	weight int
}

// candidate is one movable key on the costliest shard. prio is the
// key's tenant overshare (0 on untenanted fleets).
type candidate struct {
	key  string
	heat float64
	prio float64
}

// planMigrations appends this barrier's migrations, planned over the
// already-folded round, to moves. Keys in skip (nil = none) are fenced
// off: Replicated keeps keys whose home is a whole replica set out of
// single-home plans. Each planned move rebinds the key's heat at once,
// so the next pick sees it, and b.mask must hold the shards that take
// no new work: a dead shard's heat decays toward the coldest in the
// fleet, and a draining shard carries heat until its drain moves land,
// but neither may be a move's source or destination. Caller holds b.mu.
func (b *balancer) planMigrations(moves []Move, skip map[string]bool) []Move {
	b.round++
	for n := 0; n < b.opts.MaxMovesPerRound; n++ {
		mv, ok := b.planOne(skip)
		if !ok {
			break
		}
		b.rebindLocked(mv.Key, mv.To)
		b.cooldown[mv.Key] = b.round + uint64(b.opts.CooldownRounds)
		moves = append(moves, mv)
	}
	// Drop thawed entries so the map stays bounded by recent movers.
	for key, until := range b.cooldown {
		if until <= b.round {
			delete(b.cooldown, key)
		}
	}
	return moves
}

// planOne picks the single best move, or reports balance. It is greedy
// over estimated completion cost — each live shard's heat weighted by
// its cost factor: while the costliest shard exceeds the imbalance
// threshold, move its hottest eligible key to the cheapest shard,
// provided the move shrinks the cost gap. On a homogeneous fleet this
// is the heat-only plan bit for bit; on a mixed fleet it routes hot
// keys onto fast shards and leaves the cold tail on slow ones. Caller
// holds b.mu.
func (b *balancer) planOne(skip map[string]bool) (Move, bool) {
	heat := b.shardHeat
	if len(heat) < 2 {
		return Move{}, false
	}
	b.cost = slices.Grow(b.cost[:0], len(heat))[:len(heat)]
	cost := b.cost
	hot, cold := -1, -1
	live := 0
	var sum float64
	for i, v := range heat {
		if i < len(b.mask) && b.mask[i] {
			continue
		}
		live++
		cost[i] = v * weightOf(b.costw, i)
		sum += cost[i]
		if hot < 0 || cost[i] > cost[hot] {
			hot = i
		}
		if cold < 0 || cost[i] < cost[cold] {
			cold = i
		}
	}
	if live < 2 {
		return Move{}, false
	}
	mean := sum / float64(live)
	if mean <= 0 || hot == cold || cost[hot] < b.opts.ImbalanceThreshold*mean {
		return Move{}, false
	}
	gap := cost[hot] - cost[cold]
	wCold := weightOf(b.costw, cold)

	overshare := b.tenantOvershare()
	cands := b.cands[:0]
	for key, k := range b.keys {
		if k.shard != hot || k.heat <= 0 || skip[key] {
			continue
		}
		if until, cooling := b.cooldown[key]; cooling && until > b.round {
			continue
		}
		cands = append(cands, candidate{key, k.heat, overshare[k.tenant]})
	}
	b.cands = cands
	// Aggressor tenants' keys first (highest overshare), hottest first
	// within a tenant tier; key order breaks exact ties
	// deterministically before the seeded pick below chooses among
	// them. The comparison is a total order, which is what keeps the
	// plan independent of the map iteration order cands were collected
	// in. Untenanted, every prio is 0 and this is the historical heat
	// order.
	slices.SortFunc(cands, func(x, y candidate) int {
		if c := cmp.Compare(y.prio, x.prio); c != 0 {
			return c
		}
		if c := cmp.Compare(y.heat, x.heat); c != 0 {
			return c
		}
		return strings.Compare(x.key, y.key)
	})
	for i, c := range cands {
		// A key whose cost on the destination would meet or exceed the
		// gap would just swap which shard is overloaded (on a mixed
		// fleet: a key a slow shard cannot absorb); skip down to the
		// first one that helps.
		if c.heat*wCold >= gap {
			continue
		}
		// Among candidates of identical heat, pick one by seeded rng:
		// the "keyed by seed" knob that decorrelates repeated sweeps
		// while staying reproducible run-to-run.
		j := i
		for j+1 < len(cands) && cands[j+1].heat == c.heat && cands[j+1].prio == c.prio {
			j++
		}
		pick := cands[i+b.rng.Intn(j-i+1)]
		return Move{Kind: MoveMigrate, Key: pick.key, From: hot, To: cold}, true
	}
	return Move{}, false
}

// tenantOvershare computes each weighted tenant's demand share minus
// its weight share from the tenant heat: positive for a class pulling
// more than its fair share (the aggressor), negative for one under it
// (the victim). Nil when the bias cannot apply. Caller holds b.mu.
func (b *balancer) tenantOvershare() map[string]float64 {
	if len(b.tweights) == 0 {
		return nil
	}
	var totHeat float64
	var totW int
	for _, tw := range b.tweights {
		totW += tw.weight
		totHeat += b.tenantHeat[tw.name]
	}
	if totHeat <= 0 || totW <= 0 {
		return nil
	}
	out := make(map[string]float64, len(b.tweights))
	for _, tw := range b.tweights {
		out[tw.name] = b.tenantHeat[tw.name]/totHeat - float64(tw.weight)/float64(totW)
	}
	return out
}

// weightOf resolves shard i's cost factor from a weight vector that
// may be nil (homogeneous fleet) or short.
func weightOf(costw []float64, i int) float64 {
	if i < len(costw) && costw[i] > 0 {
		return costw[i]
	}
	return 1
}

// OnShardUp implements Placement for every balancer-based strategy:
// grow the pool, the shard heat and the cost weights by one shard. The
// new shard starts cold and empty, so first-sight keys land there
// immediately and the very next Rebalance offloads hot keys onto it
// (it is the coldest target by construction).
func (b *balancer) OnShardUp(shard int, costFactor float64) {
	b.pool.AddShard(costFactor)
	b.mu.Lock()
	b.shardHeat = append(b.shardHeat, 0)
	b.shardWin = append(b.shardWin, 0)
	b.mu.Unlock()
	if b.useCost {
		w := costFactor
		if w <= 0 {
			w = 1
		}
		b.costw = append(b.costw, w)
	}
}

// PlanDrain implements Placement for every balancer-based strategy:
// the pool plans the evacuation (sorted keys, spread targets); each
// committed move carries the key's EWMA heat to its new home via the
// commit hook below.
func (b *balancer) PlanDrain(shard int) []Move { return b.pool.PlanDrain(shard) }

// OnShardDown implements Placement for every balancer-based strategy:
// reclaim the dead shard's bindings (failing replicated keys over to a
// survivor), re-allocate each orphan, and carry every affected key's
// EWMA heat to its new home so the migrator keeps seeing the key's
// real temperature through the failover.
func (b *balancer) OnShardDown(shard int) []Rehome {
	orphans, failovers := b.pool.ReclaimShard(shard)
	out := make([]Rehome, 0, len(orphans))
	for _, key := range orphans {
		to := b.pool.Get(key)
		b.rebind(key, to)
		out = append(out, Rehome{Key: key, To: to})
	}
	for _, key := range failovers {
		if to, ok := b.pool.Lookup(key); ok {
			b.rebind(key, to)
		}
	}
	return out
}

// Commit applies one move's routing change. Migrates and promotes
// carry the key's heat to its new shard (idempotent for migrator plans,
// which already rebound heat at plan time — a rebind to the same target
// is a no-op), so drain evacuations keep the imbalance view honest.
func (b *balancer) Commit(mv Move) bool {
	ok := commitPoolMove(b.pool, mv)
	if ok && (mv.Kind == MoveMigrate || mv.Kind == MovePromote) {
		b.rebind(mv.Key, mv.To)
	}
	return ok
}

func (b *balancer) Release(key string)            { b.pool.Put(key) }
func (b *balancer) Evicted(key string, shard int) { b.pool.PutIf(key, shard) }
func (b *balancer) Lookup(key string) (int, bool) { return b.pool.Lookup(key) }
func (b *balancer) Replicas(key string) []int     { return b.pool.Replicas(key) }
func (b *balancer) Load() []int                   { return b.pool.Load() }
func (b *balancer) Assigned() int                 { return b.pool.Assigned() }

// Rebalance closes the heat round and plans its migrations.
func (b *balancer) Rebalance() []Move {
	b.mask = b.pool.appendUnavailable(b.mask[:0])
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fold(nil)
	return b.planMigrations(nil, nil)
}

// HeatMigrate migrates hot keys off overloaded shards at rebalance
// barriers, balancing raw EWMA heat as if every shard were the same
// machine class (the heat-only A/B baseline on mixed fleets; on a
// homogeneous fleet it is THE migration strategy).
type HeatMigrate struct{ balancer }

// NewHeatMigrate builds a heat-only migrating strategy. Zero Options
// fields take the loadmgr defaults; Seed pins the tie-break.
// Constructing the strategy is itself the migration opt-in, so
// Options.Migrate is ignored here (unlike Replicated, where it gates
// the migration half).
func NewHeatMigrate(opts loadmgr.Options) *HeatMigrate {
	return &HeatMigrate{newBalancer(opts, false)}
}

// Bind implements Placement.
func (s *HeatMigrate) Bind(shards int, costFactors []float64) error {
	return s.bind(shards, costFactors)
}

// CostAware migrates by estimated completion cost — heat weighted by
// each shard's backend cost factor — so hot keys land on fast shards
// and slow shards keep the cold tail. On a homogeneous fleet (all
// factors 1.0) it degenerates to HeatMigrate bit for bit.
type CostAware struct{ balancer }

// NewCostAware builds a cost-aware migrating strategy. Like
// NewHeatMigrate, constructing it is the migration opt-in, so
// Options.Migrate is ignored.
func NewCostAware(opts loadmgr.Options) *CostAware {
	return &CostAware{newBalancer(opts, true)}
}

// Bind implements Placement.
func (s *CostAware) Bind(shards int, costFactors []float64) error {
	return s.bind(shards, costFactors)
}
