package placement

import (
	"errors"

	"repro/internal/loadmgr"
)

// errRebound rejects a second Bind of a single-use strategy instance.
var errRebound = errors.New("placement: strategy already bound to a fleet")

// balancer is the shared core of every heat-driven strategy: the
// sticky pool, the EWMA heat tracker fed from the routing path, and
// the bounded greedy migrator that turns heat snapshots into moves at
// rebalance barriers. HeatMigrate and CostAware differ only in whether
// the migrator sees the fleet's cost factors; Replicated layers
// replica fan-out on top.
type balancer struct {
	opts loadmgr.Options
	pool *Pool
	heat *loadmgr.HeatTracker
	mig  *loadmgr.Migrator
	// costw is the per-shard cost-factor vector handed to the migrator;
	// nil balances raw heat (the heat-only A/B baseline). The pool is
	// always cost-weighted regardless — machine capacity is a fact of
	// allocation, cost-blind *migration* is the only knob under test.
	costw   []float64
	useCost bool
	// down mirrors the pool's dead-shard mask for the migrator, which
	// plans from heat snapshots and would otherwise pick a dead shard
	// (whose heat decays toward zero) as the coldest move target.
	down []bool
}

func newBalancer(opts loadmgr.Options, useCost bool) balancer {
	return balancer{opts: opts, useCost: useCost}
}

// bind builds the pool/tracker/migrator for a fleet of `shards`.
func (b *balancer) bind(shards int, costFactors []float64) error {
	if b.pool != nil {
		return errRebound
	}
	w, err := bindFactors(shards, costFactors)
	if err != nil {
		return err
	}
	b.pool = NewWeightedPool(w)
	b.heat = loadmgr.NewHeatTracker(shards, b.opts.Alpha)
	b.mig = loadmgr.NewMigrator(b.opts)
	b.down = make([]bool, shards)
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

// route is the shared hot path: sticky allocation plus the heat feed
// (tenant-tagged, so the migrator can bias by QoS class).
func (b *balancer) route(c Call) int {
	sid := b.pool.Get(c.Key)
	b.heat.RecordTenant(c.Key, c.Tenant, sid, 1)
	return sid
}

// SetTenantWeights implements TenantAware: the QoS layer hands the
// migrator its tenant weight table so plans move aggressor keys first.
// Nil clears the bias. Must be called after Bind.
func (b *balancer) SetTenantWeights(weights map[string]int) {
	b.mig.SetTenantWeights(weights)
}

// planMigrations plans this barrier's migrations over the
// already-advanced heat round, excluding `skip` keys (nil = none).
// The caller owns the heat.Advance — exactly one per barrier, however
// many planning passes a strategy layers on top.
func (b *balancer) planMigrations(skip map[string]bool) []Move {
	// The migrator must treat draining shards like dead ones: they carry
	// heat until their drain moves land, but nothing new may target them.
	mask := append([]bool(nil), b.down...)
	for i, d := range b.pool.DrainingShards() {
		if d && i < len(mask) {
			mask[i] = true
		}
	}
	var moves []Move
	for _, mv := range b.mig.PlanLive(b.heat, b.costw, skip, mask) {
		moves = append(moves, Move{Kind: MoveMigrate, Key: mv.Key, From: mv.From, To: mv.To})
	}
	return moves
}

// OnShardUp implements Placement for every balancer-based strategy:
// grow the pool, the heat tracker, and the migrator's masks by one
// shard. The new shard starts cold and empty, so first-sight keys land
// there immediately and the very next Rebalance offloads hot keys onto
// it (it is the coldest target by construction).
func (b *balancer) OnShardUp(shard int, costFactor float64) {
	b.pool.AddShard(costFactor)
	b.heat.AddShard()
	b.down = append(b.down, false)
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
	if shard >= 0 && shard < len(b.down) {
		b.down[shard] = true
	}
	out := make([]Rehome, 0, len(orphans))
	for _, key := range orphans {
		to := b.pool.Get(key)
		b.heat.Rebind(key, to)
		out = append(out, Rehome{Key: key, To: to})
	}
	for _, key := range failovers {
		if to, ok := b.pool.Lookup(key); ok {
			b.heat.Rebind(key, to)
		}
	}
	return out
}

// commit applies one move's routing change. Migrates and promotes
// carry the key's heat to its new shard (idempotent for migrator plans,
// which already rebound heat at plan time — Rebind to the same target
// is a no-op), so drain evacuations keep the imbalance view honest.
func (b *balancer) commit(mv Move) bool {
	ok := commitPoolMove(b.pool, mv)
	if ok && (mv.Kind == MoveMigrate || mv.Kind == MovePromote) {
		b.heat.Rebind(mv.Key, mv.To)
	}
	return ok
}

func (b *balancer) Release(key string)            { b.pool.Put(key) }
func (b *balancer) Evicted(key string, shard int) { b.pool.PutIf(key, shard) }
func (b *balancer) Lookup(key string) (int, bool) { return b.pool.Lookup(key) }
func (b *balancer) Replicas(key string) []int     { return b.pool.Replicas(key) }
func (b *balancer) Load() []int                   { return b.pool.Load() }
func (b *balancer) Assigned() int                 { return b.pool.Assigned() }
func (b *balancer) Commit(mv Move) bool           { return b.commit(mv) }
func (b *balancer) Route(c Call) int              { return b.route(c) }

func (b *balancer) Rebalance() []Move {
	b.heat.Advance()
	return b.planMigrations(nil)
}

// Imbalance exposes the tracker's max/mean shard-heat score (1 =
// balanced), for observability via the concrete strategy types.
func (b *balancer) Imbalance() float64 { return b.heat.ImbalanceScore() }

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
