package fleet

import (
	"errors"
	"strconv"

	"repro/internal/autoscale"
	"repro/internal/backend"
	"repro/internal/placement"
	"repro/internal/trace"
)

// This file is the fleet's reconcile surface: the hooks a spec-driven
// reconcile loop (internal/reconcile) uses to converge a live fleet
// toward a declarative FleetSpec. Like AddShard/DrainShard, every hook
// only queues; the replacement lands at the next rebalance barrier —
// the one point where routing is quiescent — so a reconciled run
// replays bit for bit under RunPlan/RunSchedule, and a fleet that
// never calls these hooks pays nothing on the barrier path.

// placeBox wraps the placement strategy for atomic replacement: an
// atomic.Pointer needs a concrete type, and strategies are interface
// values of varying dynamic type.
type placeBox struct{ p placement.Placement }

// placement returns the current routing strategy. Reads are atomic so
// a shard goroutine reporting an eviction mid-stretch can never race a
// barrier-point SwapPlacement.
func (f *Fleet) placement() placement.Placement { return f.place.Load().p }

// Barriers returns how many rebalance barriers the fleet has executed —
// the epoch number reconcile status reports and trace events carry.
func (f *Fleet) Barriers() uint64 { return f.barriers.Load() }

// ShardInventory describes one live shard for spec diffing.
type ShardInventory struct {
	ID       int             `json:"id"`
	Profile  backend.Profile `json:"profile"`
	Draining bool            `json:"draining"`
}

// Inventory snapshots the live shard set (ascending by id, dead shards
// excluded) with each shard's backend profile and whether a drain is
// already queued or in progress — exactly what a spec Diff plans over.
func (f *Fleet) Inventory() []ShardInventory {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var inv []ShardInventory
	for sid, sh := range f.shards {
		if f.down[sid] {
			continue
		}
		inv = append(inv, ShardInventory{
			ID:       sid,
			Profile:  sh.profile,
			Draining: f.draining[sid],
		})
	}
	return inv
}

// SwapPlacement queues a replacement routing strategy, applied at the
// next rebalance barrier. The instance must be fresh (single-use, like
// WithPlacement); at the barrier it is bound over the full shard id
// space with the fleet's current cost factors, told about every dead
// shard, and installed atomically — every call routed after the
// barrier sees the new strategy, while calls already queued drain on
// their old shards (no call is ever lost to a swap).
//
// Warm sessions placed by the old strategy are not torn down eagerly:
// the new strategy re-routes each key on first use, and a key landing
// on a new shard simply warms there while the stale session ages out
// via the session cap, Release, or shard retirement. Only one swap can
// be pending at a time; a second SwapPlacement before the next barrier
// replaces the queued strategy (the first instance is discarded
// unused).
func (f *Fleet) SwapPlacement(p placement.Placement) error {
	if p == nil {
		return errors.New("fleet: SwapPlacement needs a strategy")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrFleetClosed
	}
	f.pendingSwap = p
	return nil
}

// SetAutoscaler queues a replacement SLO autoscaler configuration,
// applied at the next rebalance barrier before the autoscaler reads
// its window — so a new band steers that same barrier's decision. A
// nil cfg disables autoscaling (the fleet keeps its current size until
// told otherwise). A zero-value Profile defaults to shard 0's profile,
// as at Open.
func (f *Fleet) SetAutoscaler(cfg *autoscale.Config) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cfg != nil {
		c := *cfg
		if err := resolveAuto(&c, f.shards[0].profile); err != nil {
			return err
		}
		cfg = &c
	}
	if f.closed {
		return ErrFleetClosed
	}
	f.pendingAuto = cfg
	f.pendingAutoSet = true
	return nil
}

// applyAutoConfig installs a queued autoscaler replacement. Runs on
// the barrier path, before the autoscaler's window read.
func (f *Fleet) applyAutoConfig() {
	f.mu.Lock()
	if !f.pendingAutoSet {
		f.mu.Unlock()
		return
	}
	cfg := f.pendingAuto
	f.pendingAuto, f.pendingAutoSet = nil, false
	if cfg == nil {
		f.auto = nil
	} else {
		f.auto = autoscale.New(*cfg)
	}
	f.mu.Unlock()
	if f.tr != nil {
		note := "autoscaler off"
		if cfg != nil {
			note = "autoscaler " + strconv.Itoa(cfg.Min) + ".." + strconv.Itoa(cfg.Max)
		}
		f.tr.EmitControl(trace.Event{Kind: trace.KAutoscale, Val: -1, Note: note})
	}
}

// autoController returns the current autoscaler (nil when disabled),
// read under the lock because applyAutoConfig may replace it between
// barriers.
func (f *Fleet) autoController() *autoscale.Controller {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.auto
}

// applySwap installs a queued placement strategy replacement. Runs on
// the barrier path after applyElastic, so the new strategy binds over
// the post-resize shard set: every queued drain has retired and every
// queued add is live by the time it takes over.
func (f *Fleet) applySwap() error {
	f.mu.Lock()
	p := f.pendingSwap
	f.pendingSwap = nil
	if p == nil {
		f.mu.Unlock()
		return nil
	}
	shards := len(f.shards)
	factors := make([]float64, shards)
	var dead []int
	for sid, sh := range f.shards {
		factors[sid] = sh.profile.CostFactor()
		if f.down[sid] {
			dead = append(dead, sid)
		}
	}
	f.mu.Unlock()

	// Bind over the full id space, then fence off every dead shard. The
	// fresh strategy holds no bindings yet, so the OnShardDown calls
	// return no rehomes — they only mark the ids unroutable.
	if err := p.Bind(shards, factors); err != nil {
		return err
	}
	for _, sid := range dead {
		p.OnShardDown(sid)
	}
	f.installPromoteObserver(p)

	// The write lock orders the swap against in-flight routes: a route
	// holds the read side across its placement lookup and inbox send,
	// so it either completed under the old strategy (and its call
	// drains normally) or will route entirely under the new one.
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrFleetClosed
	}
	f.place.Store(&placeBox{p: p})
	f.mu.Unlock()
	// A tenanted fleet re-applies its QoS weight bias to the fresh
	// strategy (the old one carried it from Open or SetTenants).
	if set := f.tenants.Load(); set != nil {
		f.applyTenantWeights(p, set)
	}
	if f.tr != nil {
		f.tr.EmitControl(trace.Event{Kind: trace.KBarrier, Val: int64(f.barriers.Load()),
			Note: "placement swapped"})
	}
	return nil
}

// installPromoteObserver wires the flight recorder's promotion event
// into a strategy's optional observer hook (shared by Open and
// applySwap).
func (f *Fleet) installPromoteObserver(p placement.Placement) {
	if f.tr == nil {
		return
	}
	if po, ok := p.(placement.PromoteObserver); ok {
		po.ObservePromotions(func(key string, from, to int) {
			f.tr.EmitControl(trace.Event{
				Kind: trace.KPromote,
				Key:  key,
				Val:  int64(to),
				Note: "from shard " + strconv.Itoa(from),
			})
		})
	}
}
