package fleet

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// This file is the fleet half of multi-tenant QoS (see internal/tenant
// for the pure scheduling core): the per-shard admission pipeline that
// replaces the FIFO admit when WithTenants is set, and the barrier-point
// SetTenants hook that re-applies weights/rates live.
//
// The pipeline per arriving request: shed check (past the knee, a class
// holding at least its weighted share of the backlog is refused with
// ErrOverload, so lowest-weight aggressors shed first while a victim
// under its share keeps being admitted) → token bucket (per-class
// admission rate, split over live shards) → the class's DRR queue.
// Between kernel dispatches the shard pumps the DRR queue into the
// usual inject path, at most Window calls in flight, so weights
// translate into throughput shares whenever more than one class has
// work queued. Everything advances on the simulated clock only, so a
// tenanted run replays bit for bit; with qos == nil every hook below is
// skipped and the dispatch path is byte-identical to an untenanted
// fleet (the zero-perturbation discipline the bench gate relies on).

// shardQOS is one shard's QoS state: the per-class token buckets, DRR
// queues and counters. Owned by the shard goroutine, like everything
// else on shard.
type shardQOS struct {
	set    *tenant.Set
	names  []string       // class names, set order (+ implicit default last)
	index  map[string]int // name -> class
	defCls int            // class of untenanted ("") requests
	weight []int
	totalW int
	bucket []*tenant.Bucket
	drr    *tenant.DRR[pendingCall]
	knee   int
	window int
	// inflight counts injected-but-unfinished calls; the pump stops at
	// window so queued work actually waits in the per-tenant queues.
	inflight int
	// stats counts each class; snapshot fills in Sessions.
	stats []TenantStats
	// counts is evictLRU's scratch: live sessions per class.
	counts []int
}

// newShardQOS builds the per-shard state for a normalized set, with
// fleet-wide bucket rates split over the live shard count.
func newShardQOS(set *tenant.Set, shards int) *shardQOS {
	q := &shardQOS{
		set:    set,
		index:  map[string]int{},
		knee:   set.Knee,
		window: set.Window,
	}
	for _, c := range set.Classes {
		q.index[c.Name] = len(q.names)
		q.names = append(q.names, c.Name)
		q.weight = append(q.weight, c.Weight)
		q.bucket = append(q.bucket, tenant.NewBucket(tenant.PerShardRate(c.Rate, shards), c.Burst))
	}
	if i, ok := q.index[tenant.DefaultName]; ok {
		q.defCls = i
	} else {
		// Implicit class for untenanted traffic: default weight, no
		// bucket (declare a "default" class to govern it explicitly).
		q.defCls = len(q.names)
		q.index[tenant.DefaultName] = q.defCls
		q.names = append(q.names, tenant.DefaultName)
		q.weight = append(q.weight, tenant.DefaultWeight)
		q.bucket = append(q.bucket, nil)
	}
	for _, w := range q.weight {
		q.totalW += w
	}
	q.drr = tenant.NewDRR[pendingCall](q.weight)
	q.stats = make([]TenantStats, len(q.names))
	q.counts = make([]int, len(q.names))
	return q
}

// classOf maps a request's tenant name to its class. Unknown names map
// to the default class — routing already rejected them fleet-side, so
// this only catches a set swap racing an already-queued job, which then
// degrades to default service instead of panicking.
func (q *shardQOS) classOf(name string) int {
	if name == "" {
		return q.defCls
	}
	if i, ok := q.index[name]; ok {
		return i
	}
	return q.defCls
}

// installQOS installs (or clears, set == nil) a shard's QoS state.
// Runs between kernel stretches only — the tenant queues are empty and
// nothing is in flight — so a live re-apply is a plain swap. Cumulative
// counters carry over by class name; bucket levels restart full (a
// re-apply is a rate change, not a debt holiday).
func (sh *shard) installQOS(set *tenant.Set, shards int) {
	old := sh.qos
	if set == nil {
		sh.qos = nil
		return
	}
	q := newShardQOS(set, shards)
	if old != nil {
		for i, name := range q.names {
			if oi, ok := old.index[name]; ok {
				q.stats[i] = old.stats[oi]
			}
		}
	}
	sh.qos = q
}

// qosArrive is the tenanted admit path for request i of job j (its
// position in the caller's sequence) arriving at cycle `at`: shed
// check, token bucket, then the class's DRR queue. A refused call
// resolves immediately with ErrOverload (Errno 0, no latency sample —
// winHist and the autoscaler window only see served calls).
func (sh *shard) qosArrive(j *job, i int, at uint64) {
	q := sh.qos
	r := j.req(i)
	class := q.classOf(r.Tenant)
	shed := tenant.Shed(q.drr.ClassLen(class), q.weight[class], q.drr.Len(), q.totalW, q.knee)
	if !shed && q.bucket[class] != nil && !q.bucket[class].Take(at) {
		shed = true
	}
	if shed {
		q.stats[class].Shed++
		if sh.ring != nil {
			sh.ring.Emit(trace.Event{
				Kind:   trace.KShed,
				Shard:  sh.id,
				Cycles: at,
				Key:    r.Key,
				FuncID: r.FuncID,
				Note:   q.names[class],
			})
		}
		sh.finishSlot(j, i, Response{Err: ErrOverload, Shard: sh.id})
		return
	}
	q.stats[class].Admitted++
	q.drr.Enqueue(class, pendingCall{j: j, i: i, at: at})
	q.stats[class].QueueMax = max(q.stats[class].QueueMax, q.drr.ClassLen(class))
}

// qosPump moves queued requests into the inject path in DRR fair order,
// keeping at most window calls in flight. Runs between kernel
// dispatches (stretchDone) — never from finish, which runs inside a
// client's dispatch, where injecting would wake and queue processes
// mid-dispatch. A pumped call answered by the result cache creates no
// pendingCall (detected via the submitted delta) and costs no window
// slot, so the pump keeps draining.
func (sh *shard) qosPump() {
	q := sh.qos
	for q.inflight < q.window {
		pc, _, ok := q.drr.Dequeue()
		if !ok {
			return
		}
		before := sh.submitted
		sh.inject(pc.j, pc.i, pc.at)
		if sh.submitted > before {
			q.inflight++
		}
	}
}

// qosFail resolves every still-queued request with resp — the abort
// path of an errored stretch, mirroring the client and cursor fill in
// runStretch.
func (sh *shard) qosFail(resp Response) {
	for {
		pc, _, ok := sh.qos.drr.Dequeue()
		if !ok {
			return
		}
		sh.finishSlot(pc.j, pc.i, resp)
	}
}

// tenantSet returns the active tenant set (nil = tenancy off).
func (f *Fleet) tenantSet() *tenant.Set { return f.tenants.Load() }

// checkTenant validates a request's tenant name against the active set
// on the routing path. Nameless requests and untenanted fleets always
// pass; with tenancy on, a name the set does not declare (and that is
// not the implicit default class) is ErrTenantUnknown.
func (f *Fleet) checkTenant(name string) error {
	if name == "" {
		return nil
	}
	ts := f.tenantSet()
	if ts == nil || ts.Index(name) >= 0 || name == tenant.DefaultName {
		return nil
	}
	return fmt.Errorf("fleet: tenant %q: %w", name, ErrTenantUnknown)
}

// SetTenants queues a replacement tenant set, applied at the next
// rebalance barrier (nil disables tenancy). The set is cloned and
// normalized here, so a rejected set never half-applies. At the
// barrier every live shard swaps its queues between stretches —
// nothing is queued or in flight there — and per-shard bucket rates
// are split over the post-resize live shard count; cumulative
// per-class counters carry over by name. Like the other reconcile
// hooks, a fleet that never calls this pays nothing on the barrier
// path.
func (f *Fleet) SetTenants(set *tenant.Set) error {
	if set != nil {
		set = set.Clone()
		if err := set.Normalize(); err != nil {
			return err
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrFleetClosed
	}
	f.pendingTenants = set
	f.pendingTenantsSet = true
	return nil
}

// applyTenantWeights pushes the set's weight table into the placement
// strategy's optional TenantAware hook, so migration plans move an
// aggressor's keys before churning a victim's warm sessions. Nil set
// clears the bias. Safe off the barrier path only at Open (the
// migrator runs solely inside barriers).
func (f *Fleet) applyTenantWeights(p placement.Placement, set *tenant.Set) {
	ta, ok := p.(placement.TenantAware)
	if !ok {
		return
	}
	var w map[string]int
	if set != nil {
		w = make(map[string]int, len(set.Classes))
		for _, c := range set.Classes {
			w[c.Name] = c.Weight
		}
	}
	ta.SetTenantWeights(w)
}

// applyTenants lands a queued SetTenants — and, on a tenanted fleet, a
// bucket-rate re-split after an elastic resize changed the live shard
// count. Runs on the barrier path after applyElastic. The swap is a
// control job: it executes between kernel stretches and costs zero
// simulated cycles.
func (f *Fleet) applyTenants() error {
	f.mu.Lock()
	set := f.pendingTenants
	pending := f.pendingTenantsSet
	f.pendingTenants, f.pendingTenantsSet = nil, false
	if !pending {
		set = f.tenants.Load()
	}
	live := f.liveShards()
	if !pending && (set == nil || live == f.tenantShards) {
		f.mu.Unlock()
		return nil
	}
	if f.closed {
		f.mu.Unlock()
		return ErrFleetClosed
	}
	f.tenantShards = live
	f.tenants.Store(set)
	jobs := f.broadcast(qosSwap(set, live), "")
	f.mu.Unlock()
	awaitAll(jobs)
	f.applyTenantWeights(f.placement(), set)
	if f.tr != nil {
		note := "tenants off"
		if set != nil {
			note = "tenants " + strconv.Itoa(len(set.Classes)) + " classes, knee " + strconv.Itoa(set.Knee)
		}
		f.tr.EmitControl(trace.Event{Kind: trace.KBarrier, Val: int64(f.barriers.Load()), Note: note})
	}
	return nil
}

// qosSwap returns the control function of a tenant-set swap: install
// set with bucket rates split over live shards. Built here because a
// closure in applyTenants would capture its reassigned set, which then
// moves to the heap on every barrier.
func qosSwap(set *tenant.Set, live int) func(*shard, string) {
	return func(sh *shard, _ string) { sh.installQOS(set, live) }
}

// IsOverload reports whether err (a Response.Err or a wrapped fleet
// error) is the QoS shed sentinel — sugar for errors.Is(err,
// ErrOverload) at call sites that count sheds.
func IsOverload(err error) bool { return errors.Is(err, ErrOverload) }
