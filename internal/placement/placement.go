// Package placement is the fleet's pluggable routing brain: a
// Placement strategy owns the client-key -> shard assignment state
// (which shard serves a key, when a key moves, and how many replicas
// a hot key is served from), while the fleet layer above stays the
// only owner of sessions, inboxes, and kernel stretches — the same
// strategy-object split the k8s-ipam allocators use to swap
// address-placement policies behind one interface.
//
// Four strategies ship:
//
//   - Sticky: the historical IPAM-style pool — a key is allocated the
//     cost-weighted least-loaded shard on first sight and keeps it
//     until released or evicted. No rebalancing.
//   - HeatMigrate: Sticky plus EWMA heat tracking and hot-key
//     migration at rebalance barriers, balancing raw heat as if every
//     shard were the same machine class.
//   - CostAware: HeatMigrate weighing every decision by the shard's
//     backend cost factor, so hot keys land on fast shards and slow
//     shards keep the cold tail.
//   - Replicated: CostAware plus hot-key replication — a
//     spec-idempotent hot key is served from N shards at once, with
//     the replica count raised and lowered from its heat at every
//     barrier. Idempotence is the consistency story: replicas hold
//     independent sessions whose calls are declared side-effect-free,
//     so any replica's answer is THE answer; non-idempotent calls pin
//     to the primary.
//
// The three heat-driven strategies share one core: the sticky pool,
// one heat record per key, and the migrator. A key's record holds its
// placement heat (EWMA calls per round, this round's window, its
// shard and its QoS tenant) and, under Replicated, its idempotent
// heat, round-robin cursor and per-shard hits. The records live in
// one map under one lock, beside the pool's own, and every rebalance
// barrier folds them in one pass before the migrator plans from them
// in place. loadmgr.Options tunes the fold and the migrator.
//
// Every strategy is deterministic given the sequence of Route /
// Rebalance / Commit / Release / Evicted calls and its configured
// seed — the property that keeps fleet.RunPlan cycle counts
// bit-for-bit reproducible under any strategy (pinned by the
// conformance suite in this package and the fleet property tests).
package placement

import "fmt"

// Call is the routing context of one request: the client key and
// whether the called function is declared idempotent by the module
// spec (only idempotent calls may be served by a replica; everything
// else pins to the key's primary shard). Tenant carries the request's
// QoS class ("" when tenancy is off) so heat-driven strategies can
// attribute per-key heat per tenant — the signal that keeps one
// tenant's storm from letting the migrator evict another's warm
// sessions.
type Call struct {
	Key        string
	Idempotent bool
	Tenant     string
}

// MoveKind discriminates the session moves a rebalance plans.
type MoveKind int

const (
	// MoveMigrate rehomes a key: drain the session on From, warm it on
	// To, and route everything after the barrier to To.
	MoveMigrate MoveKind = iota
	// MoveReplicate adds a replica of an idempotent hot key on To
	// (From is the key's primary, for reporting); nothing drains.
	MoveReplicate
	// MoveDrain removes the replica on From (the key stays live on its
	// remaining shards).
	MoveDrain
	// MovePromote retires a replicated key's primary on From, promoting
	// the next replica to primary (To, for reporting) — the drain-plan
	// move for keys whose primary sits on a retiring shard. Nothing
	// warms; the promoted replica's session is already live.
	MovePromote
)

func (k MoveKind) String() string {
	switch k {
	case MoveMigrate:
		return "migrate"
	case MoveReplicate:
		return "replicate"
	case MoveDrain:
		return "drain"
	case MovePromote:
		return "promote"
	}
	return fmt.Sprintf("movekind(%d)", int(k))
}

// Move is one planned session move. The fleet executes the kernel
// side (drain / warm jobs); Commit applies the routing side.
type Move struct {
	Kind     MoveKind
	Key      string
	From, To int
}

// Rehome records one orphaned key's new primary after a shard death:
// the key's only binding died with the shard, the strategy re-allocated
// it to To, and the fleet must re-warm its session there. Keys that
// failed over to a surviving replica are not reported — their sessions
// on the survivors are already warm.
type Rehome struct {
	Key string
	To  int
}

// Placement owns a fleet's routing, rebalancing, and replica fan-out.
// Implementations must be safe for concurrent Route / Release /
// Evicted / Lookup calls; Rebalance and Commit are only ever called
// from the fleet's barrier path (Commit under the fleet's write lock,
// so it is ordered against every concurrent Route).
//
// A Placement instance is single-use: Bind attaches it to one fleet.
type Placement interface {
	// Bind attaches the strategy to a fleet of shards 0..shards-1 with
	// the given per-shard cost factors (1.0 = baseline machine; nil =
	// homogeneous). Called exactly once, before any other method.
	Bind(shards int, costFactors []float64) error

	// Route returns the shard that serves this call, allocating
	// routing state on the key's first sight. For replicated keys an
	// idempotent call may route to any replica; non-idempotent calls
	// always route to the primary.
	Route(c Call) int

	// Rebalance runs at a barrier and plans this round's session
	// moves. The plan is optimistic: the fleet calls Commit for each
	// move (under its routing write lock) and skips moves whose
	// binding changed underneath the plan.
	Rebalance() []Move

	// Commit applies one planned move's routing change, returning
	// false when the key's binding changed since the plan (the fleet
	// then skips the kernel-side work too).
	Commit(mv Move) bool

	// Release drops every binding of key — primary and all replicas —
	// so the key's next request may land anywhere.
	Release(key string)

	// Evicted reports that shard tore down key's session (LRU reclaim
	// or a drain): the binding on that one shard is dropped, promoting
	// a surviving replica to primary when the primary was evicted.
	Evicted(key string, shard int)

	// OnShardUp reports that a new shard joined the fleet. Its id is
	// always the current shard count (ids grow monotonically and are
	// never reused, even after a shard dies or drains); costFactor is
	// its machine-class weight (1.0 = baseline). The shard starts empty
	// and immediately competes for new keys — being the least loaded it
	// wins first-sight allocations, and heat-driven strategies offload
	// hot keys onto it at the same barrier's Rebalance. Called from the
	// fleet's barrier path.
	OnShardUp(shard int, costFactor float64)

	// PlanDrain marks shard as draining — no new keys, rebinds, or
	// replicas land there from this point on — and plans the moves that
	// evacuate every binding it holds, in deterministic (sorted-key)
	// order: singly-bound keys get a MoveMigrate to the least-loaded
	// live shard, replicated primaries a MovePromote onto their next
	// replica, and plain replicas a MoveDrain. The fleet commits and
	// executes the plan like a Rebalance, then calls OnShardDown(shard)
	// as the final fence so any binding that raced the plan is
	// reclaimed too — after which the shard holds zero bindings and can
	// retire. Draining a down or already-draining shard returns nil.
	PlanDrain(shard int) []Move

	// OnShardDown reports that a shard died. The strategy reclaims
	// every binding the shard held (the ipam dead-owner reclaim): keys
	// with surviving replicas fail over to one — the promoted replica
	// becomes the primary — and keys whose only binding died are
	// re-allocated across the survivors and returned (in deterministic
	// order) so the fleet can re-warm their sessions. The dead shard is
	// never routed to again. Called from the fleet's barrier path, like
	// Rebalance.
	OnShardDown(shard int) []Rehome

	// Lookup returns key's primary shard without allocating.
	Lookup(key string) (int, bool)

	// Replicas returns every shard currently serving key, primary
	// first (nil when unassigned).
	Replicas(key string) []int

	// Load returns per-shard binding counts (replicas each count once).
	Load() []int

	// Assigned returns the number of keys with at least one binding.
	Assigned() int
}

// PromoteObserver is the optional observation interface pool-backed
// strategies implement: ObservePromotions installs a callback fired
// after every primary failover (key's primary on `from` handed off to
// the promoted replica on `to`), whichever path caused it — an
// explicit MovePromote commit, a dead-owner reclaim, or a primary
// eviction. Must be called after Bind and before traffic; the fleet's
// trace recorder type-asserts for it when tracing is enabled, so a
// custom strategy that never promotes can simply not implement it.
type PromoteObserver interface {
	ObservePromotions(fn func(key string, from, to int))
}

// TenantAware is the optional QoS interface pool-backed strategies
// implement: SetTenantWeights hands the migrator the tenant weight
// table so rebalance plans move an overdemanding (aggressor) tenant's
// keys off a hot shard before a victim's warm keys are ever churned.
// Nil clears the bias. The fleet type-asserts for it when tenancy is
// configured; a custom strategy can simply not implement it. Must be
// called after Bind.
type TenantAware interface {
	SetTenantWeights(weights map[string]int)
}

// commitPoolMove applies one move's routing change to a pool — the
// shared Commit core: each kind maps onto the pool primitive that
// validates the plan against the current binding, so stale moves are
// refused instead of corrupting the load accounting.
func commitPoolMove(p *Pool, mv Move) bool {
	switch mv.Kind {
	case MoveMigrate:
		return p.Rebind(mv.Key, mv.From, mv.To)
	case MoveReplicate:
		return p.AddReplica(mv.Key, mv.From, mv.To)
	case MoveDrain:
		return p.DropReplica(mv.Key, mv.From)
	case MovePromote:
		return p.Promote(mv.Key, mv.From)
	}
	return false
}

// bindFactors validates a Bind call's arguments for the strategies.
func bindFactors(shards int, costFactors []float64) ([]float64, error) {
	if shards < 1 {
		return nil, fmt.Errorf("placement: need at least 1 shard, got %d", shards)
	}
	if costFactors != nil && len(costFactors) != shards {
		return nil, fmt.Errorf("placement: %d cost factors for %d shards", len(costFactors), shards)
	}
	w := make([]float64, shards)
	for i := range w {
		w[i] = 1
		if i < len(costFactors) && costFactors[i] > 0 {
			w[i] = costFactors[i]
		}
	}
	return w, nil
}
