// Package fleet shards SecModule call traffic across N independent
// simulated kernels, the first scaling layer on the road from the
// paper's single-machine Figure 8 measurements to a system serving
// heavy concurrent traffic.
//
// Each shard owns one kern.Kernel (with its own cycle clock, physical
// memory, and SecModule layer) and runs in its own goroutine — kernels
// are deterministic and fully self-contained, so the fleet scales with
// host cores while every shard stays bit-for-bit reproducible. Client
// traffic is routed by client key through a pluggable placement
// strategy (see internal/placement): the default is the sticky
// IPAM-style pool (least-loaded allocation, sticky while held,
// reclaimed on Release); migrating strategies move hot keys between
// shards at barrier points, and the replicating strategy serves
// idempotent hot keys from several shards at once. Inside a shard
// every key gets one simulated client process holding a warm
// core.Session to the protected module; requests are coalesced into
// batches, handed to the parked client processes, and executed in a
// single deterministic kernel stretch.
//
// A fleet is built with Open and functional options:
//
//	f, err := fleet.Open(
//		fleet.WithShards(4),
//		fleet.WithModule("libc", 1),
//		fleet.WithProvision(provision),
//		fleet.WithPlacement(placement.NewCostAware(loadmgr.Options{Seed: 1})),
//		fleet.WithResultCache(1024),
//	)
//
// Dispatch inside a shard is pipelined: a running kernel stretch admits
// call jobs as they arrive (instead of strictly batch-park-resume), and
// every job resolves the moment its own calls complete, so concurrent
// callers keep several calls in flight within a single stretch.
//
// Three submission modes exist:
//
//   - Do: one live call from any number of goroutines, coalesced and
//     pipelined opportunistically (open-loop friendly); Call and the
//     served FleetCall are Do with their own error mapping;
//   - RunPlan: a fixed request sequence routed and executed
//     deterministically — same plan, same config, same per-shard cycle
//     counts, regardless of goroutine interleaving (the property the
//     fleet tests pin down);
//   - RunSchedule: a fixed timed arrival schedule in simulated clock
//     time — requests enter their shard at scheduled cycle offsets,
//     queue behind whatever is in flight, and report per-call latency;
//     shards advance their clocks over idle gaps, making this a true
//     open-loop arrival process (and, like RunPlan, deterministic).
//
// Aggregate statistics merge every shard's clock: since the shards
// simulate N independent machines running concurrently, the fleet's
// simulated makespan is the maximum per-shard busy time, and aggregate
// throughput is total calls over that makespan.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/autoscale"
	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/loadmgr"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// Request is one protected call addressed by client key. Tenant names
// the request's QoS class when the fleet runs with WithTenants: the
// class's weight sets its fair share at dispatch, its token bucket
// rate-limits admission, and past the shed knee overloaded classes are
// refused with ErrOverload. "" joins the implicit default class; a
// name the tenant set does not declare is rejected at routing with
// ErrTenantUnknown. Without WithTenants the field is ignored.
type Request struct {
	Key    string
	FuncID uint32
	Args   []uint32
	Tenant string
}

// Response is the outcome of one request.
type Response struct {
	// Val is the function's return value when Errno == 0 and Err == nil.
	Val uint32
	// Errno is the simulated kernel errno from smod_call (0 = success).
	Errno int
	// Err reports fleet-level failures: session attach errors, a client
	// killed mid-batch, shutdown.
	Err error
	// Shard is the shard that served (or failed) the request, or -1
	// when it was refused before routing: a closed fleet, an unknown
	// tenant, or more arguments than a native call frame holds.
	Shard int
	// LatencyCycles is the simulated time between the request's arrival
	// on its shard (its scheduled instant for RunSchedule, the moment it
	// entered a kernel stretch otherwise) and its completion: queueing
	// delay plus service time, on the shard's own clock.
	LatencyCycles uint64
}

// TimedRequest schedules one request at a cycle offset from the start
// of its schedule on its shard (see Fleet.RunSchedule).
type TimedRequest struct {
	At  uint64 // arrival offset in simulated cycles, non-decreasing
	Req Request
}

// Fleet is a running shard fleet.
type Fleet struct {
	cfg    config
	shards []*shard
	// place owns routing, rebalancing, and replica fan-out. It is an
	// atomic pointer because SwapPlacement replaces the strategy at a
	// rebalance barrier while shard goroutines may be reporting
	// evictions concurrently; every reader goes through placement().
	place atomic.Pointer[placeBox]
	// idemp marks the module's spec-declared idempotent funcIDs (from
	// shard 0; provisioning is identical across shards). Routing passes
	// the flag to the placement strategy — only idempotent calls may be
	// served by a replica.
	idemp map[uint32]bool

	// tenants is the active QoS tenant set (nil = tenancy off). Atomic
	// because routing validates tenant names on the live path while
	// SetTenants swaps the set at a barrier; every reader goes through
	// tenantSet().
	tenants atomic.Pointer[tenant.Set]

	// chaosEng, when non-nil, schedules deterministic faults executed at
	// the top of every Rebalance barrier (see WithChaos).
	chaosEng *chaos.Engine

	// auto, when non-nil, is the SLO autoscaler stepped at every
	// Rebalance barrier (see WithAutoscalerConfig).
	auto *autoscale.Controller

	// tr, when non-nil, is the flight recorder (WithTrace); met, when
	// non-nil, holds the pre-resolved metric series (WithMetrics). Both
	// observe only — every emission site is nil-guarded, so a fleet
	// without them pays one branch per site and zero allocations.
	tr  *trace.Recorder
	met *fleetMetrics
	// barriers counts executed Rebalance barriers — the epoch number
	// stamped on trace events and published to the metrics registry.
	barriers atomic.Uint64

	// mu guards closed, down, and corrupt and, as a reader lock, every
	// inbox send: Close (and a chaos kill) takes the write side before
	// closing an inbox so no sender can race a closed channel.
	mu     sync.RWMutex
	closed bool
	// down marks dead shards — chaos-killed or drained and retired:
	// their inboxes are closed and they are skipped by sends, Release
	// broadcasts, and Close.
	down []bool
	// draining marks shards with a drain queued or in progress; drained
	// marks shards retired on purpose (a subset of down, counted apart
	// from chaos kills in Stats).
	draining []bool
	drained  []bool
	// pendingAdds and pendingDrains queue shard-lifecycle operations
	// until the next rebalance barrier applies them (FIFO, adds first),
	// keeping RunPlan/RunSchedule deterministic.
	pendingAdds   []backend.Profile
	pendingDrains []int
	added         int
	drainedN      int
	// pendingSwap and pendingAuto queue control-plane replacements —
	// a new placement strategy, a new (or nil) autoscaler config —
	// applied at the next rebalance barrier (see reconcile.go). Both
	// are nil/false on a fleet that never calls the reconcile hooks,
	// so the barrier path is unchanged for every existing caller.
	pendingSwap    placement.Placement
	pendingAuto    *autoscale.Config
	pendingAutoSet bool
	// pendingTenants queues a SetTenants replacement (nil = disable),
	// applied at the next barrier; tenantShards remembers the live
	// shard count the per-shard bucket rates were last split over, so
	// an elastic resize re-splits them at the same barrier (qos.go).
	pendingTenants    *tenant.Set
	pendingTenantsSet bool
	tenantShards      int
	// corrupt marks keys whose next warm-in is poisoned (CorruptWarm).
	corrupt map[string]bool
	wg      sync.WaitGroup

	finalOnce sync.Once
	final     Stats
	closeErr  error
}

// Sentinel errors on the fleet surface, all checked via errors.Is.
var (
	// ErrFleetClosed is returned by operations on a closed fleet.
	ErrFleetClosed = errors.New("fleet: closed")

	// ErrShardDown is returned by sends targeting a dead shard — chaos-
	// killed or drained and retired. Routing never produces one (the
	// placement layer reclaims a dead shard's bindings before its inbox
	// closes), so the error marks a caller holding a stale shard id.
	ErrShardDown = errors.New("fleet: shard down")

	// ErrUnknownShard is returned by shard-lifecycle operations naming a
	// shard id the fleet never had.
	ErrUnknownShard = errors.New("fleet: unknown shard")

	// ErrDrainInProgress is returned by DrainShard when the shard is
	// already draining (queued or mid-evacuation). It is how the fleet
	// picks one winner when two control planes target the same shard in
	// the same barrier: the drain queued first wins, and every later
	// DrainShard for that shard reports ErrDrainInProgress. In
	// particular, a reconcile drain queued before a barrier always
	// beats the autoscaler's decision inside that barrier — autoStep
	// tolerates the error and simply holds its window, so exactly one
	// drain executes (the regression test pins this).
	ErrDrainInProgress = errors.New("fleet: drain in progress")

	// ErrOverload is the QoS shed sentinel: the request was refused —
	// never injected — because its tenant class was over its admission
	// rate or past its weighted share of a queue beyond the shed knee.
	// Responses carry it in Err with Errno 0; the rpc layer maps it to
	// rpc.ErrnoOverload on the wire. The call is safe to retry later.
	ErrOverload = errors.New("fleet: overloaded, call shed")

	// ErrTenantUnknown is returned at routing when a request names a
	// tenant the active WithTenants/SetTenants set does not declare.
	// Without tenancy configured, tenant names are not checked.
	ErrTenantUnknown = errors.New("fleet: unknown tenant")
)

// Open builds and starts a fleet from functional options. WithModule,
// WithProvision, and a fleet size (WithShards or WithBackends) are
// required; everything else defaults: homogeneous baseline backends,
// sticky placement, no result cache, unlimited warm sessions.
func Open(opts ...Option) (*Fleet, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:      cfg,
		chaosEng: cfg.chaosEng,
		tr:       cfg.tr,
		down:     make([]bool, cfg.shards),
		draining: make([]bool, cfg.shards),
		drained:  make([]bool, cfg.shards),
		corrupt:  map[string]bool{},
	}
	f.place.Store(&placeBox{p: cfg.place})
	f.tenants.Store(cfg.tenants)
	f.tenantShards = cfg.shards
	if cfg.auto != nil {
		f.auto = autoscale.New(*cfg.auto)
	}
	if cfg.met != nil {
		f.met = newFleetMetrics(cfg.met)
	}
	for i := 0; i < cfg.shards; i++ {
		sh, err := f.bootShard(i, backend.ProfileOf(cfg.backends, i), cfg.shards)
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, sh)
	}
	// Bind the strategy only once every shard provisioned cleanly, so a
	// failed Open does not burn the caller's single-use instance.
	if err := cfg.place.Bind(cfg.shards, backend.CostFactors(cfg.backends)); err != nil {
		return nil, err
	}
	// With tracing on, record replica promotions (primary failovers on
	// kills and drains) through the strategy's optional observer hook.
	f.installPromoteObserver(cfg.place)
	if cfg.tenants != nil {
		f.applyTenantWeights(cfg.place, cfg.tenants)
	}
	for _, sh := range f.shards {
		f.start(sh)
	}
	return f, nil
}

// bootShard provisions shard id on a fresh kernel with profile p and
// wires it into the fleet — result cache, eviction hook, trace ring, and
// QoS state split over live shards — ready for start. Open and
// growShard boot every shard through it.
func (f *Fleet) bootShard(id int, p backend.Profile, live int) (*shard, error) {
	var cache *loadmgr.ResultCache
	if f.cfg.cacheSize > 0 {
		cache = loadmgr.NewResultCache(f.cfg.cacheSize)
	}
	sh, err := newShard(id, &f.cfg, p, cache)
	if err != nil {
		return nil, err
	}
	sh.onEvict = func(key string) { f.placement().Evicted(key, sh.id) }
	if f.idemp == nil {
		// One derivation of the module's idempotent funcIDs, from the
		// first shard (provisioning is identical across shards), shared
		// by the routing layer and every shard's result cache. The map is
		// read-only once shard goroutines run.
		f.idemp = idempotentFuncs(sh.sm, f.cfg.module, f.cfg.version)
	}
	if sh.cache != nil {
		sh.idemp = f.idemp
	}
	if f.tr != nil {
		sh.ring = f.tr.ShardRing(id)
	}
	sh.installQOS(f.tenantSet(), live)
	return sh, nil
}

// start launches a booted shard's goroutine.
func (f *Fleet) start(sh *shard) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer close(sh.stopped)
		sh.loop()
	}()
}

// FuncID resolves an exported function name of the fleet's module.
// Provisioning is identical across shards, so shard 0 is authoritative.
func (f *Fleet) FuncID(name string) (uint32, bool) {
	f.mu.RLock()
	sm := f.shards[0].sm
	f.mu.RUnlock()
	m := sm.Module(sm.Find(f.cfg.module, f.cfg.version))
	if m == nil {
		return 0, false
	}
	id, ok := m.FuncID(name)
	return uint32(id), ok
}

// enqueue gives j its done channel and puts it on shard sid's inbox,
// returning j. The caller holds f.mu (either side) and has checked that
// the fleet is open and sid is live.
func (f *Fleet) enqueue(sid int, j *job) *job {
	j.done = make(chan struct{})
	f.shards[sid].inbox <- j
	return j
}

// awaitAll waits until every job in jobs is done.
func awaitAll(jobs []*job) {
	for _, j := range jobs {
		<-j.done
	}
}

// send enqueues j on shard sid, failing cleanly on a closed fleet or a
// dead shard.
func (f *Fleet) send(sid int, j *job) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrFleetClosed
	}
	if f.down[sid] {
		return ErrShardDown
	}
	f.enqueue(sid, j)
	return nil
}

// route asks the placement strategy for req's serving shard and
// enqueues j there. The closed check happens before the placement
// allocation (both under the same reader lock as the send), so calls
// against a closed fleet never leave phantom assignments behind in the
// strategy's load accounting.
func (f *Fleet) route(req *Request, j *job) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrFleetClosed
	}
	if err := f.checkRequest(req); err != nil {
		return err
	}
	sid := f.placement().Route(placement.Call{Key: req.Key, Idempotent: f.idemp[req.FuncID], Tenant: req.Tenant})
	if f.tr != nil {
		f.tr.EmitRoute(trace.Event{Key: req.Key, FuncID: req.FuncID, Val: int64(sid)})
	}
	f.enqueue(sid, j)
	return nil
}

// checkRequest is the admission check route and submitGrouped make on
// every request before placing it: no more arguments than a native
// call frame holds (core.MaxNativeArgs; a longer request fails with
// core.ErrTooManyArgs), and a known tenant.
func (f *Fleet) checkRequest(req *Request) error {
	if len(req.Args) > core.MaxNativeArgs {
		return fmt.Errorf("fleet: key %q: %d call arguments, at most %d: %w",
			req.Key, len(req.Args), core.MaxNativeArgs, core.ErrTooManyArgs)
	}
	return f.checkTenant(req.Tenant)
}

// Do submits one live request and waits for its response. Safe for
// concurrent use; concurrent callers hitting the same shard are
// coalesced into shared kernel batches, and each returns as soon as
// its own call completes. A request refused before routing — a closed
// fleet, an unknown tenant, or more arguments than a native call frame
// holds — returns Response{Err: err, Shard: -1}.
func (f *Fleet) Do(req Request) Response {
	j := newCallJob(req)
	if err := f.route(&j.reqs[0], j); err != nil {
		return Response{Err: err, Shard: -1}
	}
	<-j.done
	return j.results[0]
}

// Call is Do for an untenanted request, with a nonzero errno returned
// as an error.
func (f *Fleet) Call(key string, funcID uint32, args ...uint32) (uint32, error) {
	r := f.Do(Request{Key: key, FuncID: funcID, Args: args})
	switch {
	case r.Err != nil:
		return 0, r.Err
	case r.Errno != 0:
		return 0, fmt.Errorf("fleet: smod_call errno %d (shard %d)", r.Errno, r.Shard)
	}
	return r.Val, nil
}

// submitGrouped is the shared scaffolding of RunPlan and RunSchedule:
// group n items per shard through the placement strategy, send each
// involved shard one barrier job of its items (reqOf gives item i's
// request; atOf, when non-nil, its arrival offset, which makes the job
// a schedule), and gather results back into item order. Routing and
// submission happen under one reader lock so a closed fleet rejects the
// whole sequence before any placement allocation happens.
func (f *Fleet) submitGrouped(n int, reqOf func(int) *Request, atOf func(int) uint64) ([]Response, error) {
	// Every grouped submission is a barrier point: the placement
	// strategy may migrate or re-replicate hot keys here, before this
	// sequence is routed, so the new routing below already sees the
	// rebalanced assignment.
	if _, err := f.Rebalance(); err != nil {
		return nil, err
	}
	f.mu.RLock()
	if f.closed {
		f.mu.RUnlock()
		return nil, ErrFleetClosed
	}
	perShard := make([][]int, len(f.shards))
	for i := 0; i < n; i++ {
		req := reqOf(i)
		if err := f.checkRequest(req); err != nil {
			f.mu.RUnlock()
			return nil, err
		}
		sid := f.placement().Route(placement.Call{Key: req.Key, Idempotent: f.idemp[req.FuncID], Tenant: req.Tenant})
		if f.tr != nil {
			f.tr.EmitRoute(trace.Event{Key: req.Key, FuncID: req.FuncID, Val: int64(sid)})
		}
		perShard[sid] = append(perShard[sid], i)
	}
	var jobs []*job
	var jobIdx [][]int
	for sid, idxs := range perShard {
		if len(idxs) == 0 {
			continue
		}
		// A barrier job starts its own stretch: that keeps plan cycle
		// counts deterministic and bases a schedule's arrivals at the
		// stretch start.
		j := &job{
			kind:    jobCalls,
			barrier: true,
			reqs:    make([]Request, len(idxs)),
			results: make([]Response, len(idxs)),
		}
		if atOf != nil {
			j.arrivals = make([]uint64, len(idxs))
		}
		for i, gi := range idxs {
			j.reqs[i] = *reqOf(gi)
			if atOf != nil {
				j.arrivals[i] = atOf(gi)
			}
		}
		jobs = append(jobs, f.enqueue(sid, j))
		jobIdx = append(jobIdx, idxs)
	}
	f.mu.RUnlock()
	out := make([]Response, n)
	for ji, j := range jobs {
		<-j.done
		for i, gi := range jobIdx[ji] {
			out[gi] = j.results[i]
		}
	}
	return out, nil
}

// RunPlan routes and executes a fixed request sequence: requests are
// assigned shards in plan order through the placement strategy and
// delivered to every shard as a single batch, so per-client call order
// follows plan order and, on a fresh fleet, the execution (including
// every shard's cycle count) is fully deterministic. Responses align
// with reqs by index.
func (f *Fleet) RunPlan(reqs []Request) ([]Response, error) {
	return f.submitGrouped(len(reqs), func(i int) *Request { return &reqs[i] }, nil)
}

// RunSchedule routes and executes a fixed timed arrival schedule:
// requests are assigned shards in schedule order through the placement
// strategy, and each enters its shard at its At cycle offset (measured
// from the schedule's admission on that shard's clock). A request
// arriving while earlier ones are still in flight queues behind them —
// its Response.LatencyCycles then includes the queueing delay — and a
// shard with no work advances its clock over the idle gap to the next
// arrival. Offsets must be non-decreasing. On a fresh fleet the
// execution is fully deterministic, like RunPlan. Responses align with
// treqs by index.
func (f *Fleet) RunSchedule(treqs []TimedRequest) ([]Response, error) {
	for i := 1; i < len(treqs); i++ {
		if treqs[i].At < treqs[i-1].At {
			return nil, fmt.Errorf("fleet: RunSchedule: arrival offsets not sorted at %d", i)
		}
	}
	return f.submitGrouped(len(treqs),
		func(i int) *Request { return &treqs[i].Req },
		func(i int) uint64 { return treqs[i].At })
}

// Release reclaims a client key: every placement binding — the primary
// slot and the whole replica set — is freed first (so a later request
// may land anywhere) and the eviction is then broadcast to every shard,
// draining the key's warm sessions wherever they live. Eviction of an
// absent key is a no-op, and the broadcast runs even for keys with no
// binding so it also sweeps up any session a previous racy Release left
// behind. Release is not linearizable with concurrent calls on the same
// key: a call in flight may recreate the session after the eviction
// passes its shard; such a session is reclaimed by the next Release (or
// LRU cap).
func (f *Fleet) Release(key string) error {
	f.placement().Release(key)
	var jobs []*job
	f.mu.RLock()
	if f.closed {
		f.mu.RUnlock()
		return ErrFleetClosed
	}
	for sid := range f.shards {
		// A dead shard's sessions died with it; nothing to sweep.
		if !f.down[sid] {
			jobs = append(jobs, f.enqueue(sid, &job{kind: jobRelease, key: key}))
		}
	}
	f.mu.RUnlock()
	awaitAll(jobs)
	return nil
}

// Rebalance runs one placement rebalance round at a barrier point and
// returns how many session moves were applied. RunPlan and RunSchedule
// call it implicitly before routing; live (Do) traffic never triggers
// rebalancing on its own, so a caller mixing live traffic with periodic
// Rebalance calls chooses its own cadence.
//
// For every planned move the routing change is committed first
// (atomically, via the strategy), then the affected shards receive
// control jobs: a migration drains the old shard and warms the new
// one, a replica add warms its shard, a replica drain tears its copy
// down. Control jobs execute between kernel stretches, so calls
// already queued on an old shard drain there, while every call routed
// after the commit sees the new assignment. A move whose binding
// changed underneath the plan (concurrent Release) is skipped. Under
// the default sticky strategy Rebalance is a no-op.
//
// Commit and enqueue happen under the fleet's write lock: every
// concurrent route() holds the read side across its own placement
// lookup and inbox send, so a live call either enqueues before the
// teardown job (and drains on the old shard) or observes the committed
// move (and lands on the new shard) — it can never read the old
// assignment yet enqueue behind the eviction, which would silently
// respawn a cold session the strategy no longer accounts for.
func (f *Fleet) Rebalance() (int, error) {
	applied, err := f.rebalance()
	// The barrier closes with one metrics publication — the coherent
	// snapshot the registry's snapshot-at-barrier semantics promise. The
	// underlying jobStats control jobs cost zero simulated cycles, so a
	// metered run replays bit for bit.
	if err == nil && f.met != nil {
		f.publishMetrics(f.Stats())
	}
	return applied, err
}

// rebalance is the barrier body: chaos, autoscale, elastic resize,
// then the placement moves.
func (f *Fleet) rebalance() (int, error) {
	// Every barrier advances the epoch stamped on trace events; the
	// counter advances even untraced so metrics report it.
	barrier := f.barriers.Add(1)
	if f.tr != nil {
		f.tr.SetBarrier(barrier)
		f.tr.EmitControl(trace.Event{Kind: trace.KBarrier, Val: int64(barrier)})
	}
	// Chaos faults fire first: every barrier steps the fault schedule,
	// so the rebalance below already plans over the post-fault fleet
	// (dead shards reclaimed, dropped sessions evicted).
	if err := f.applyChaos(); err != nil {
		return 0, err
	}
	// A queued autoscaler replacement (SetAutoscaler) lands before the
	// window read, so a new band steers this same barrier's decision.
	f.applyAutoConfig()
	// Then the autoscaler reads the closing barrier window and may queue
	// a resize, and every queued add/drain — autoscaled or explicit —
	// takes effect, so the rebalance below plans over the resized fleet
	// (new shards are the coldest targets; drained shards are gone).
	if auto := f.autoController(); auto != nil {
		if err := f.autoStep(auto); err != nil {
			return 0, err
		}
	}
	if err := f.applyElastic(); err != nil {
		return 0, err
	}
	// A queued tenant-set replacement (SetTenants) lands after the
	// resize so per-shard bucket rates split over the post-resize live
	// count; with no replacement queued this re-splits only when the
	// live count actually changed, and is a no-op on untenanted fleets.
	if err := f.applyTenants(); err != nil {
		return 0, err
	}
	// A queued strategy replacement (SwapPlacement) binds over the
	// post-resize shard set and routes everything from here on.
	if err := f.applySwap(); err != nil {
		return 0, err
	}
	moves := f.placement().Rebalance()
	if len(moves) == 0 {
		return 0, nil
	}
	return f.applyMoves(moves)
}

// applyMoves commits planned moves and runs their kernel halves — the
// one applier for Rebalance and shard drains. Moves commit and enqueue
// in plan order: a migration tears down on From, then warms on To; a
// replica add warms on To; a replica drop or a promote tears down the
// copy on From (a promoted replica is already warm). It returns how
// many moves were applied once every job has run.
//
// A move is skipped when From is down or, for a move that warms, when
// To is down: it is stale (planned from heat that predates a kill), and
// skipping keeps the dead inbox untouched. Only warms read To; a drop
// planned for a draining shard leaves it 0. A move whose binding
// changed underneath the plan (a concurrent Release) fails its commit
// and is skipped too.
func (f *Fleet) applyMoves(moves []placement.Move) (int, error) {
	var jobs []*job
	applied := 0
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, ErrFleetClosed
	}
	for _, mv := range moves {
		warms := mv.Kind == placement.MoveMigrate || mv.Kind == placement.MoveReplicate
		if f.down[mv.From] || (warms && f.down[mv.To]) {
			continue
		}
		if !f.placement().Commit(mv) {
			continue
		}
		applied++
		switch mv.Kind {
		case placement.MoveMigrate:
			jobs = append(jobs,
				f.enqueue(mv.From, &job{kind: jobTeardown, span: trace.KMigrateOut, key: mv.Key}),
				f.enqueue(mv.To, f.warmJob(trace.KWarmIn, mv.Key)))
		case placement.MoveReplicate:
			jobs = append(jobs, f.enqueue(mv.To, f.warmJob(trace.KReplicaIn, mv.Key)))
		case placement.MoveDrain, placement.MovePromote:
			jobs = append(jobs, f.enqueue(mv.From, &job{kind: jobTeardown, span: trace.KReplicaOut, key: mv.Key}))
		}
	}
	f.mu.Unlock()
	awaitAll(jobs)
	return applied, nil
}

// Stats takes a coherent per-shard snapshot. Each shard answers after
// finishing the work submitted before the snapshot request, so counters
// are consistent per shard. A chaos-killed shard contributes its final
// (time-of-death) snapshot. After Close it returns the final stats.
func (f *Fleet) Stats() Stats {
	f.mu.RLock()
	if f.closed {
		f.mu.RUnlock()
		// Closed (or closing): wait for shutdown to finish and return
		// the final snapshot instead.
		f.Close()
		return f.final
	}
	shards := f.shards
	jobs := make([]*job, len(shards)) // nil for a dead shard
	for sid := range shards {
		if !f.down[sid] {
			jobs[sid] = f.enqueue(sid, &job{kind: jobStats})
		}
	}
	f.mu.RUnlock()
	// A dead shard's goroutine is awaited outside the lock: a kill
	// closes its inbox under the write side.
	per := make([]ShardStats, len(shards))
	downCount := 0
	for sid, j := range jobs {
		if j == nil {
			<-shards[sid].stopped
			per[sid] = shards[sid].final
			downCount++
			continue
		}
		<-j.done
		per[sid] = j.stats
	}
	return f.fleetStats(per, downCount)
}

// fleetStats merges per-shard snapshots and stamps the fleet-level
// lifecycle counters. down counts every dead shard; drained ones retired
// on purpose and are reported separately from chaos kills.
func (f *Fleet) fleetStats(per []ShardStats, down int) Stats {
	st := merge(per)
	f.mu.RLock()
	st.ShardsAdded = uint64(f.added)
	st.ShardsDrained = uint64(f.drainedN)
	st.ShardsDown = down - f.drainedN
	f.mu.RUnlock()
	return st
}

// PoolLoad exposes the placement strategy's per-shard binding counts
// (replica bindings each count once).
func (f *Fleet) PoolLoad() []int { return f.placement().Load() }

// Close shuts the fleet down: every shard drains its inbox, unparks
// its clients with the shutdown flag, and runs its kernel until all
// simulated processes exited. Close is idempotent; the first call
// returns any shard shutdown error.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		for sid, sh := range f.shards {
			if !f.down[sid] {
				close(sh.inbox)
			}
		}
	}
	f.mu.Unlock()
	f.wg.Wait()
	f.finalOnce.Do(func() {
		per := make([]ShardStats, len(f.shards))
		downCount := 0
		for i, sh := range f.shards {
			per[i] = sh.final
			if f.down[i] {
				downCount++
			}
			if sh.err != nil && f.closeErr == nil {
				f.closeErr = sh.err
			}
		}
		f.final = f.fleetStats(per, downCount)
		// One last publication so scrapes after Close see the final
		// counters rather than the last barrier's.
		f.publishMetrics(f.final)
	})
	return f.closeErr
}
