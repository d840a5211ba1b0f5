package fleet

import (
	"errors"
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/backend"
	"repro/internal/clock"
	"repro/internal/trace"
)

// This file is the fleet half of elastic resize: shards that arrive
// and drain on purpose, mirroring the chaos engine's shards that die
// by accident (chaos.go). AddShard and DrainShard only queue; every
// queued operation takes effect at the next rebalance barrier — the
// one point where routing is quiescent — so RunPlan/RunSchedule stay
// bit-for-bit deterministic through any resize sequence. The SLO
// autoscaler (internal/autoscale) closes the loop by queueing resizes
// from the live p99 estimate at those same barriers.

// AddShard queues one new shard of the given machine-class profile and
// returns the id it will take (ids grow monotonically and are never
// reused). The shard joins at the next rebalance barrier: its kernel
// is provisioned fresh, the placement strategy is told via OnShardUp —
// so new keys land on it immediately and heat-driven strategies
// offload hot keys onto it in the same barrier's rebalance, each
// warm-in paying the usual bounded session cost (gated by the re-warm
// budget in elastic drills).
func (f *Fleet) AddShard(p backend.Profile) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return -1, ErrFleetClosed
	}
	id := len(f.shards) + len(f.pendingAdds)
	f.pendingAdds = append(f.pendingAdds, p)
	return id, nil
}

// DrainShard queues shard sid for retirement at the next rebalance
// barrier: the placement strategy stops admitting keys to it and plans
// the evacuation of every binding (migrate out singly-bound keys,
// promote replicated primaries, drop replicas), the fleet executes the
// moves, reclaims any straggler via the OnShardDown fence, closes the
// shard's inbox, and retires it with zero bindings. Requests already
// queued on the shard drain there first.
//
// Errors, all matchable with errors.Is: ErrFleetClosed, ErrUnknownShard
// (no such id), ErrShardDown (already dead), ErrDrainInProgress
// (already queued or draining). The last live shard is never drained.
//
// When two control planes race a drain of the same shard onto the same
// barrier, first queued wins: the draining mark is set here, under the
// lock, the moment the drain is accepted, so the later caller —
// typically the SLO autoscaler deciding inside the barrier after a
// reconcile loop queued its drain before it — gets ErrDrainInProgress
// and must treat the shard as already handled (autoStep does, holding
// its window). The winner is deterministic because queueing order is:
// all pre-barrier callers first, then the autoscaler's autoStep.
func (f *Fleet) DrainShard(sid int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrFleetClosed
	}
	if sid < 0 || sid >= len(f.shards) {
		return fmt.Errorf("fleet: shard %d: %w", sid, ErrUnknownShard)
	}
	if f.down[sid] {
		return fmt.Errorf("fleet: shard %d: %w", sid, ErrShardDown)
	}
	if f.draining[sid] {
		return fmt.Errorf("fleet: shard %d: %w", sid, ErrDrainInProgress)
	}
	avail := 0
	for i := range f.shards {
		if !f.down[i] && !f.draining[i] {
			avail++
		}
	}
	if avail+len(f.pendingAdds) <= 1 {
		return fmt.Errorf("fleet: cannot drain shard %d: last live shard", sid)
	}
	f.draining[sid] = true
	f.pendingDrains = append(f.pendingDrains, sid)
	return nil
}

// LiveShards returns how many shards are currently serving (neither
// chaos-killed nor drained).
func (f *Fleet) LiveShards() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.liveShards()
}

// LiveCostUnits returns the fleet's current running cost: the sum of
// UnitPrice over live shards — the quantity the autoscaler minimizes
// while holding its SLO, sampled per epoch by the bench layer.
func (f *Fleet) LiveCostUnits() float64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var sum float64
	for sid, sh := range f.shards {
		if !f.down[sid] {
			sum += sh.profile.UnitPrice()
		}
	}
	return sum
}

// applyElastic applies every queued lifecycle operation, adds first
// (so a same-barrier drain can evacuate onto the new capacity), in
// queue order. Runs on the barrier path only.
func (f *Fleet) applyElastic() error {
	f.mu.Lock()
	adds := f.pendingAdds
	drains := f.pendingDrains
	f.pendingAdds, f.pendingDrains = nil, nil
	f.mu.Unlock()
	for _, p := range adds {
		if err := f.growShard(p); err != nil {
			return err
		}
	}
	for _, sid := range drains {
		if err := f.retireShard(sid); err != nil {
			return err
		}
	}
	return nil
}

// growShard provisions and starts one new shard and announces it to
// the placement strategy. The kernel provisions on its own fresh clock
// (no other shard pays for it), exactly like an Open-time shard.
func (f *Fleet) growShard(p backend.Profile) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrFleetClosed
	}
	id := len(f.shards)
	f.mu.Unlock()
	// QoS state is installed before the goroutine starts so a call that
	// races the barrier onto the new shard already queues fairly; the
	// applyTenants re-split later in this same barrier fixes up the
	// bucket rates for the exact post-resize live count.
	sh, err := f.bootShard(id, p, f.LiveShards()+1)
	if err != nil {
		return fmt.Errorf("fleet: add shard %d: %w", id, err)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrFleetClosed
	}
	f.shards = append(f.shards, sh)
	f.down = append(f.down, false)
	f.draining = append(f.draining, false)
	f.added++
	f.mu.Unlock()
	if f.tr != nil {
		f.tr.EmitControl(trace.Event{Kind: trace.KShardUp, Val: int64(id), Note: p.Label()})
	}
	f.placement().OnShardUp(id, p.CostFactor())
	f.start(sh)
	return nil
}

// retireShard executes one queued drain: plan the evacuation, commit
// and run the moves (migrate-outs drain the shard, warm-ins land on
// the targets, promotes and replica drops tear down the retiring
// copies), fence with OnShardDown so any binding that raced the plan
// is reclaimed and re-warmed too, then close the inbox and wind the
// shard down. After this the shard holds zero bindings, ever.
func (f *Fleet) retireShard(sid int) error {
	f.mu.RLock()
	dead := f.closed || sid < 0 || sid >= len(f.shards) || f.down[sid]
	f.mu.RUnlock()
	if dead {
		return nil // chaos killed it first (or the fleet closed): nothing to drain
	}
	if f.tr != nil {
		f.tr.EmitControl(trace.Event{Kind: trace.KShardDrain, Val: int64(sid)})
	}
	if _, err := f.applyMoves(f.placement().PlanDrain(sid)); err != nil {
		return err
	}

	// Final fence: reclaim whatever the plan missed (a concurrent
	// allocation that slipped in before the draining mark, a refused
	// commit). Usually empty; orphans re-warm on their new homes below.
	rehomes := f.placement().OnShardDown(sid)

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrFleetClosed
	}
	f.down[sid] = true
	f.drainedN++
	close(f.shards[sid].inbox)
	f.mu.Unlock()
	<-f.shards[sid].stopped
	return f.rewarm(rehomes)
}

// autoStep feeds the autoscaler one barrier window — the merged
// per-shard latency histogram since the previous barrier — and queues
// the resize it decides. Runs on the barrier path, before applyElastic,
// so a decision takes effect at this same barrier. The controller is
// passed in (read once under the lock) because SetAutoscaler may
// replace it between barriers.
func (f *Fleet) autoStep(auto *autoscale.Controller) error {
	p99us, calls := f.collectWindow()
	f.mu.RLock()
	if f.closed {
		f.mu.RUnlock()
		return ErrFleetClosed
	}
	var live []autoscale.ShardInfo
	for sid, sh := range f.shards {
		if !f.down[sid] && !f.draining[sid] {
			live = append(live, autoscale.ShardInfo{ID: sid, Price: sh.profile.UnitPrice()})
		}
	}
	f.mu.RUnlock()
	act := auto.Decide(autoscale.Window{P99Micros: p99us, Calls: calls, Live: live})
	if f.met != nil {
		f.met.autoP99.Set(p99us)
		f.met.autoWindowCalls.Set(float64(calls))
		if act.Add != nil {
			f.met.autoAdds.Inc()
		}
		if act.Drain >= 0 {
			f.met.autoDrains.Inc()
		}
	}
	if f.tr != nil {
		// One decision event per window: the observation (p99 vs SLO over
		// how many calls), the action, and — when resizing — the priced
		// shard it acts on.
		e := trace.Event{Kind: trace.KAutoscale, Val: -1}
		switch {
		case act.Add != nil:
			e.Note = fmt.Sprintf("p99=%.1fus slo=%.0fus calls=%d add=%s",
				p99us, auto.Config().SLOMicros, calls, act.Add.Label())
		case act.Drain >= 0:
			e.Val = int64(act.Drain)
			e.Note = fmt.Sprintf("p99=%.1fus slo=%.0fus calls=%d drain=%d",
				p99us, auto.Config().SLOMicros, calls, act.Drain)
		default:
			e.Note = fmt.Sprintf("p99=%.1fus slo=%.0fus calls=%d hold",
				p99us, auto.Config().SLOMicros, calls)
		}
		f.tr.EmitControl(e)
	}
	if act.Add != nil {
		if _, err := f.AddShard(*act.Add); err != nil {
			return err
		}
	}
	if act.Drain >= 0 {
		// A racing chaos kill can invalidate the victim between Decide
		// and here; a refused drain just holds this window.
		switch err := f.DrainShard(act.Drain); {
		case err == nil:
		case errorsIsAny(err, ErrShardDown, ErrDrainInProgress, ErrUnknownShard):
		default:
			return err
		}
	}
	return nil
}

// collectWindow gathers and resets every live shard's latency
// histogram and returns the merged nearest-rank p99 upper bound in
// simulated microseconds, plus the number of calls covered. The
// histograms bucket by bit length, so the estimate is the p99 bucket's
// upper edge — a conservative (never optimistic) tail read.
func (f *Fleet) collectWindow() (p99us float64, calls uint64) {
	f.mu.RLock()
	if f.closed {
		f.mu.RUnlock()
		return 0, 0
	}
	hists := make([][latBuckets]uint64, len(f.shards))
	jobs := f.broadcast(func(sh *shard, _ string) {
		hists[sh.id], sh.winHist = sh.winHist, [latBuckets]uint64{}
	}, "")
	f.mu.RUnlock()
	awaitAll(jobs)
	var hist [latBuckets]uint64
	for _, h := range hists {
		for i, n := range h {
			hist[i] += n
		}
	}
	for _, n := range hist {
		calls += n
	}
	if calls == 0 {
		return 0, 0
	}
	rank := (99*calls + 99) / 100 // ceil(0.99 * calls), nearest-rank
	var cum uint64
	bucket := 0
	for i, n := range hist {
		cum += n
		if cum >= rank {
			bucket = i
			break
		}
	}
	// Bucket i holds latencies of bit length i: upper edge 2^i - 1.
	ub := uint64(1)<<uint(bucket) - 1
	return float64(ub) / clock.CyclesPerMicrosecond, calls
}

// errorsIsAny reports whether errors.Is matches err to any target.
func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}
