package fleet

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/loadmgr"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// SysParkNo is the fleet-only syscall a shard's client processes use to
// wait for work. It lives above the measure package's bench mark
// syscall (390) and well clear of the Figure 4 range.
const SysParkNo = 392

// maxBatch bounds how many inbox jobs a shard coalesces into one kernel
// stretch, and sizes the inbox.
const maxBatch = 256

// pendingCall is one routed request while it traverses a shard.
type pendingCall struct {
	funcID uint32
	args   []uint32
	job    *job
	idx    int         // index into job.results
	cp     *clientProc // owning client, for in-flight accounting
	// at is the request's arrival cycle on the shard clock: its
	// scheduled time for timed jobs, the injection instant otherwise.
	// Completion minus at is the per-call latency (queueing + service).
	at   uint64
	done bool
}

// clientProc is one simulated client process holding a warm session.
// Exactly one exists per (shard, client key); it is spawned on the
// key's first request and lives — session, handle process and all —
// until evicted, released, or fleet shutdown. A parked client sleeps
// on its park queue.
type clientProc struct {
	key     string
	proc    *kern.Proc
	queue   []*pendingCall
	park    kern.WaitQ
	closing bool
	born    uint64 // spawn sequence, LRU tie-break
	lastUse uint64 // admission sequence of last routed job
	// inflight counts injected-but-unfinished calls (queued or being
	// served); a client with calls in flight is never LRU-evicted.
	inflight int
	// tenant is the QoS class that last used this session ("" without
	// tenancy) — the signal the tenant-aware LRU uses to evict an
	// over-share class's sessions before an under-share class's.
	tenant string
	// steps is the process body.
	steps clientSteps
	// queue1 backs queue until a second call queues up.
	queue1 [1]*pendingCall
}

// jobKind discriminates the shard inbox messages.
type jobKind int

const (
	// jobCalls is a batch of calls: immediate, or a schedule when the
	// job carries arrivals.
	jobCalls jobKind = iota
	jobStats
	jobRelease
	// jobTeardown and jobWarm are the two halves of every session move:
	// jobTeardown kills a key's session on the shard it leaves (a
	// migration's old copy, a dropped or promoted-away replica), and
	// jobWarm pre-attaches it where it arrives (a migration's new home,
	// a replica add, an orphan re-warm after a shard death). The job's
	// span names which, and picks the counter it bumps. Both are
	// control jobs: they run between kernel stretches, so every call
	// already in the shard's inbox ahead of them drains on the old
	// assignment first.
	jobTeardown
	jobWarm
	// Chaos control jobs (see internal/chaos and fleet chaos.go):
	// jobStall advances the shard clock (a straggler drill); jobDrop
	// tears down one live session (the key recovers by re-attaching).
	jobStall
	jobDrop
	// jobWindow snapshots and resets the shard's latency-window
	// histogram — the autoscaler's per-barrier observation feed. A
	// control job like the others, it costs no simulated cycles.
	jobWindow
	// jobTenants swaps the shard's QoS state (tenant set + per-shard
	// bucket rates) between stretches — the SetTenants barrier
	// broadcast and the post-resize rate re-split (see qos.go).
	jobTenants
)

// latBuckets sizes the power-of-2 latency histograms: bucket i counts
// completions whose latency has bit length i (bucket 0 is latency 0),
// so the worst case (full uint64) lands in bucket 64.
const latBuckets = 65

// job is one unit of work sent to a shard: a batch of calls (immediate
// or on a timed arrival schedule), or a control job between stretches.
type job struct {
	kind jobKind
	reqs []Request
	// arrivals, when non-nil, makes a jobCalls a schedule: the
	// non-decreasing cycle offsets (parallel to reqs) at which each
	// request enters the shard, measured from the job's admission into
	// a kernel stretch.
	arrivals []uint64
	results  []Response
	// pending counts unfinished requests; done closes when it reaches
	// zero, so a single-call job (Do) resolves as soon as its call
	// completes, mid-stretch, not at the batch barrier.
	pending int
	// barrier marks a job that must start its own kernel stretch rather
	// than be admitted into a running one. RunPlan and RunSchedule set
	// it: whether a job joins an already-running stretch depends on
	// host timing, so without the flag back-to-back plans would leak
	// host timing into their cycle counts. The guarantee is scoped to
	// plan/schedule-only traffic (what the property tests pin down) —
	// live jobs arriving DURING a barrier stretch are still pipelined
	// into it, so mixing RunPlan with concurrent Do traffic is not
	// deterministic (nor could it be: pool routing already races).
	barrier bool
	key     string // jobRelease / session move / chaos target
	// span is a session move's trace kind: KMigrateOut or KReplicaOut
	// for a jobTeardown, KWarmIn, KReplicaIn or KRewarm for a jobWarm.
	span trace.Kind
	// cycles is the jobStall clock advance.
	cycles uint64
	// corrupt poisons a jobWarm: the freshly warmed session is
	// discarded on arrival, as if the handoff payload failed
	// verification, and the key re-allocates cold.
	corrupt bool
	stats   ShardStats
	// hist carries a jobWindow's histogram snapshot back to the fleet.
	hist []uint64
	// tset and tshards carry a jobTenants swap: the new tenant set (nil
	// disables tenancy) and the live shard count its bucket rates split
	// over.
	tset    *tenant.Set
	tshards int
	// done closes when the job has run; enqueue makes it.
	done chan struct{}
	// oneReq and oneRes back reqs and results of a single-call job
	// (newCallJob), so it needs no slices of its own.
	oneReq [1]Request
	oneRes [1]Response
}

// newCallJob returns a job of the one call req, holding its own
// request and response.
func newCallJob(req Request) *job {
	j := &job{kind: jobCalls}
	j.oneReq[0] = req
	j.reqs, j.results = j.oneReq[:], j.oneRes[:]
	return j
}

// timedCursor walks one admitted schedule's arrivals.
type timedCursor struct {
	j    *job
	base uint64 // shard clock at admission; arrivals are offsets from it
	pos  int
}

// shard is one independent simulated kernel plus its routing state.
// All fields are owned by the shard goroutine. The client processes are
// steppers the kernel calls inline on that goroutine, so the whole
// structure is race-free without locks.
type shard struct {
	id int
	// profile is the shard's backend machine class; its scaled cost
	// table is installed on the kernel at construction, before any
	// process exists, and never changes (determinism per assignment).
	profile backend.Profile
	cfg     *config
	k       *kern.Kernel
	sm      *core.SMod

	inbox chan *job

	// onEvict reports a torn-down session's key back to the fleet so
	// the pool assignment is reclaimed along with the session (set by
	// bootShard; Pool is mutex-guarded, so this is safe from the shard
	// goroutine).
	onEvict func(key string)

	clients map[string]*clientProc
	// live holds clients' values in spawn (born) order, the order the
	// LRU walk and shutdown visit them in.
	live    []*clientProc
	byPID   map[int]*clientProc
	spawned uint64
	seq     uint64 // job admission sequence for LRU accounting

	// Stretch state: pipelined dispatch admits jobs into the running
	// kernel stretch from the RunUntil predicate, so one stretch serves
	// every call that arrives while it runs (up to maxBatch jobs).
	submitted     int            // pendingCalls injected this stretch
	completed     int            // pendingCalls finished this stretch
	pcs           []*pendingCall // all calls injected this stretch
	cursors       []*timedCursor // live arrival schedules
	jobsInStretch int
	stash         *job // first control job seen mid-stretch (barrier)
	inboxClosed   bool

	evictions uint64
	// idleCycles accumulates the clock jumps stretchDone makes over
	// idle gaps to the next scheduled arrival.
	idleCycles uint64

	// Result-cache and placement state (nil/zero without
	// WithResultCache, or under sticky placement): cache memoizes
	// idempotent responses, idemp marks which funcIDs qualify (from the
	// module spec), mid keys cache entries by module.
	cache       *loadmgr.ResultCache
	idemp       map[uint32]bool
	mid         int
	migratedOut uint64
	migratedIn  uint64
	replicasIn  uint64
	replicasOut uint64

	// Chaos drill counters (see ShardStats).
	rewarms      uint64
	rewarmMax    uint64
	stallCycles  uint64
	drops        uint64
	corruptWarms uint64
	warmMax      uint64

	// qos, when non-nil, replaces the FIFO admit with the per-tenant
	// admission pipeline (see qos.go). Owned by the shard goroutine;
	// swapped only between stretches (jobTenants).
	qos *shardQOS

	// winHist buckets completed-call latencies by bit length since the
	// last jobWindow collection — host-side counters only, so recording
	// never perturbs the simulated clocks.
	winHist [latBuckets]uint64

	// ring is the shard's flight-recorder lane (nil without WithTrace).
	// It is written only from the shard goroutine, client steps
	// included, so emission takes no lock; like winHist it records
	// host-side only and never touches the simulated clock.
	ring *trace.Ring

	// stopped closes when the shard goroutine has fully wound down
	// (final stats ready) — the handshake a chaos kill waits on.
	stopped chan struct{}

	final ShardStats
	err   error
}

func newShard(id int, cfg *config, profile backend.Profile, cache *loadmgr.ResultCache) (*shard, error) {
	sh := &shard{
		id:      id,
		profile: profile,
		cfg:     cfg,
		k:       kern.New(),
		clients: map[string]*clientProc{},
		byPID:   map[int]*clientProc{},
		inbox:   make(chan *job, maxBatch),
		stopped: make(chan struct{}),
	}
	sh.k.SetCosts(profile.Costs())
	sh.sm = core.Attach(sh.k)
	if cfg.provision != nil {
		if err := cfg.provision(sh.k, sh.sm, profile); err != nil {
			return nil, fmt.Errorf("fleet: shard %d provision: %w", id, err)
		}
	}
	mid := sh.sm.Find(cfg.module, cfg.version)
	if mid == 0 {
		return nil, fmt.Errorf("fleet: shard %d: module %s v%d not registered by Provision",
			id, cfg.module, cfg.version)
	}
	if sh.cache = cache; sh.cache != nil {
		// sh.idemp is filled in by bootShard, once, fleet-wide:
		// provisioning is identical across shards, so the derivation is
		// shared.
		sh.mid = sh.sm.Module(mid).ID
	}
	sh.k.RegisterSyscall(SysParkNo, "fleet_park", sh.sysPark)
	return sh, nil
}

// idempotentFuncs collects the module's spec-declared idempotent
// funcIDs — the single derivation the routing layer (replica fan-out)
// and every shard's result cache share.
func idempotentFuncs(sm *core.SMod, module string, version int) map[uint32]bool {
	out := map[uint32]bool{}
	if m := sm.Module(sm.Find(module, version)); m != nil {
		for fid := range m.Funcs {
			if m.IdempotentFunc(fid) {
				out[uint32(fid)] = true
			}
		}
	}
	return out
}

// sysPark blocks the calling client process until the shard routes it
// work or shuts it down. The retried syscall completes once either
// condition holds.
func (sh *shard) sysPark(k *kern.Kernel, p *kern.Proc, args []uint32) kern.Sysret {
	cp := sh.byPID[p.PID]
	if cp == nil {
		return kern.Sysret{Err: kern.EINVAL}
	}
	if cp.closing || len(cp.queue) > 0 {
		return kern.Sysret{Val: 0}
	}
	return kern.Sysret{BlockOn: &cp.park}
}

// finish completes one injected call: record the response (with its
// latency on the shard clock), count it against the stretch, and close
// the owning job as soon as its last call lands. Idempotent, so stale
// entries left in a dead client's queue are never double-counted.
func (sh *shard) finish(pc *pendingCall, resp Response) {
	if pc.done {
		return
	}
	pc.done = true
	pc.cp.inflight--
	if sh.qos != nil {
		// Frees one window slot; the pump refills it from the tenant
		// queues at the next stretchDone check, never from here: finish
		// runs inside a client's dispatch, and injecting from there
		// would wake and queue processes mid-dispatch.
		sh.qos.inflight--
	}
	resp.Shard = sh.id
	resp.LatencyCycles = sh.k.Clk.Cycles() - pc.at
	sh.completed++
	if sh.ring != nil {
		e := trace.Event{
			Kind:   trace.KCall,
			Shard:  sh.id,
			Cycles: pc.at,
			Dur:    resp.LatencyCycles,
			Key:    pc.cp.key,
			FuncID: pc.funcID,
		}
		if resp.Err != nil {
			e.Note = "error"
		} else if resp.Errno != 0 {
			e.Val = int64(resp.Errno)
		}
		sh.ring.Emit(e)
	}
	if sh.cache != nil && resp.Err == nil && resp.Errno == 0 && sh.idemp[pc.funcID] {
		sh.cache.Put(sh.mid, pc.funcID, pc.args, resp.Val)
	}
	sh.finishSlot(pc.job, pc.idx, resp)
}

// finishSlot writes one result slot and closes the job when it was the
// last. Used by finish and by the abort path for never-injected
// arrivals (which have no pendingCall and count nothing against the
// stretch).
func (sh *shard) finishSlot(j *job, idx int, resp Response) {
	if resp.Err == nil {
		sh.winHist[bits.Len64(resp.LatencyCycles)]++
	}
	j.results[idx] = resp
	j.pending--
	if j.pending == 0 {
		close(j.done)
	}
}

// parkCall is the syscall a client waits for work with.
var parkCall = kern.Syscall{No: SysParkNo}

// clientSteps is the body of one client process, a kern.Stepper the
// kernel steps on the shard goroutine. It attaches once (opening the
// warm session), then parks. On each wake it exits if the client is
// closing; otherwise it serves the queue, one smod_call per step with
// finish after each return, and parks again once the queue is empty.
// Requests appended to the queue while a wake is being served (the
// pipelined path) are served in the same wake.
type clientSteps struct {
	sh     *shard
	cp     *clientProc
	attach core.Handshake
	nc     *core.NativeClient // nil until attached
	pc     *pendingCall       // the call in flight, nil while parked
}

func (c *clientSteps) Step(s *kern.Sys, val uint32, errno int) (kern.Syscall, bool, int) {
	sh, cp := c.sh, c.cp
	switch {
	case c.nc == nil:
		sc, done, _ := c.attach.Step(s, val, errno)
		if !done {
			return sc, false, 0
		}
		if err := c.attach.Err; err != nil {
			for _, pc := range cp.queue {
				sh.finish(pc, Response{Err: err})
			}
			cp.queue = nil
			return kern.Syscall{}, true, 1
		}
		c.nc = c.attach.Client
		return parkCall, false, 0
	case c.pc != nil:
		sh.finish(c.pc, Response{Val: val, Errno: errno})
		c.pc = nil
	case cp.closing:
		return kern.Syscall{}, true, 0
	}
	for len(cp.queue) > 0 {
		// Pop in place, so a queue that drains and refills keeps its
		// array.
		pc := cp.queue[0]
		n := copy(cp.queue, cp.queue[1:])
		cp.queue[n] = nil
		cp.queue = cp.queue[:n]
		if pc.done {
			// Stale entry answered by an errored stretch's abort fill;
			// the finish guard would make serving it a no-op, skipping
			// avoids the wasted call.
			continue
		}
		if sh.ring != nil {
			// The execute instant: queue wait is this minus the call's
			// inject event.
			sh.ring.Emit(trace.Event{
				Kind:   trace.KExec,
				Shard:  sh.id,
				Cycles: sh.k.Clk.Cycles(),
				Key:    cp.key,
				FuncID: pc.funcID,
			})
		}
		sc, err := c.nc.Prepare(pc.funcID, pc.args...)
		if err != nil {
			sh.finish(pc, Response{Err: err})
			continue
		}
		c.pc = pc
		return sc, false, 0
	}
	return parkCall, false, 0
}

// next yields the shard's next inbox job, honoring a stashed control
// job left over from the previous stretch first.
func (sh *shard) next() (*job, bool) {
	if sh.stash != nil {
		j := sh.stash
		sh.stash = nil
		return j, true
	}
	if sh.inboxClosed {
		return nil, false
	}
	j, ok := <-sh.inbox
	if !ok {
		sh.inboxClosed = true
	}
	return j, ok
}

// loop is the shard goroutine: call jobs open a pipelined kernel
// stretch (which admits further arriving call jobs while it runs);
// control jobs (stats, release, session moves, ...) execute between
// stretches, so their answers reflect every job submitted before them,
// and are done once they ran. It exits when the inbox closes.
func (sh *shard) loop() {
	for {
		j, ok := sh.next()
		if !ok {
			sh.shutdown()
			return
		}
		switch j.kind {
		case jobCalls:
			// Its calls close done as they finish.
			sh.runStretch(j)
			continue
		case jobStats:
			j.stats = sh.snapshot()
		case jobRelease:
			sh.evict(j.key)
		case jobTeardown:
			before := sh.k.Clk.Cycles()
			sh.teardown(j.key)
			if j.span == trace.KMigrateOut {
				sh.migratedOut++
			} else {
				sh.replicasOut++
			}
			sh.emitSpan(j.span, before, j.key, "")
		case jobWarm:
			before := sh.k.Clk.Cycles()
			note := "corrupt"
			if sh.warmChecked(j) {
				note = ""
				d := sh.k.Clk.Cycles() - before
				switch j.span {
				case trace.KWarmIn:
					sh.migratedIn++
				case trace.KReplicaIn:
					sh.replicasIn++
				case trace.KRewarm:
					sh.rewarms++
					sh.rewarmMax = max(sh.rewarmMax, d)
				}
				sh.warmMax = max(sh.warmMax, d)
			}
			sh.emitSpan(j.span, before, j.key, note)
		case jobStall:
			before := sh.k.Clk.Cycles()
			sh.k.Clk.Advance(j.cycles)
			sh.stallCycles += j.cycles
			sh.emitSpan(trace.KStall, before, "", "")
		case jobDrop:
			if sh.clients[j.key] != nil {
				sh.evict(j.key)
				sh.drops++
				if sh.ring != nil {
					sh.ring.Emit(trace.Event{
						Kind:   trace.KDrop,
						Shard:  sh.id,
						Cycles: sh.k.Clk.Cycles(),
						Key:    j.key,
					})
				}
			}
		case jobWindow:
			j.hist = append(j.hist[:0], sh.winHist[:]...)
			sh.winHist = [latBuckets]uint64{}
		case jobTenants:
			sh.installQOS(j.tset, j.tshards)
		}
		close(j.done)
	}
}

// admit takes one call job into the current stretch: immediate requests
// are injected now; timed requests register an arrival cursor based at
// the current clock. Each admission is an LRU epoch — clients the job
// touches are protected from eviction while it is being routed, but a
// long-lived pipelined stretch does not freeze the LRU clock.
func (sh *shard) admit(j *job) {
	sh.seq++
	sh.jobsInStretch++
	j.pending = len(j.reqs)
	if sh.ring != nil {
		sh.ring.Emit(trace.Event{
			Kind:   trace.KAdmit,
			Shard:  sh.id,
			Cycles: sh.k.Clk.Cycles(),
			Val:    int64(len(j.reqs)),
		})
	}
	if j.arrivals != nil {
		cur := &timedCursor{j: j, base: sh.k.Clk.Cycles()}
		sh.cursors = append(sh.cursors, cur)
		return
	}
	now := sh.k.Clk.Cycles()
	for i := range j.reqs {
		sh.arrive(j, i, now)
	}
}

// arrive is the admission dispatch: the tenanted pipeline when QoS is
// on, the historical direct inject otherwise.
func (sh *shard) arrive(j *job, i int, at uint64) {
	if sh.qos != nil {
		sh.qosArrive(j, i, at)
		return
	}
	sh.inject(j, i, at)
}

// inject routes request i of job j into its client's queue, waking the
// client if parked. at is the request's arrival cycle for latency
// accounting. Idempotent functions consult the shard's result cache
// first: a hit answers immediately — no client wake, no handle
// dispatch — for the cost of one memo-table probe.
func (sh *shard) inject(j *job, i int, at uint64) {
	r := &j.reqs[i]
	if sh.ring != nil {
		sh.ring.Emit(trace.Event{
			Kind:   trace.KInject,
			Shard:  sh.id,
			Cycles: at,
			Key:    r.Key,
			FuncID: r.FuncID,
		})
	}
	if sh.cache != nil && sh.idemp[r.FuncID] {
		sh.k.Clk.Advance(sh.k.Costs.CacheLookup)
		if val, ok := sh.cache.Get(sh.mid, r.FuncID, r.Args); ok {
			if sh.ring != nil {
				sh.ring.Emit(trace.Event{
					Kind:   trace.KCacheHit,
					Shard:  sh.id,
					Cycles: at,
					Dur:    sh.k.Clk.Cycles() - at,
					Key:    r.Key,
					FuncID: r.FuncID,
				})
			}
			sh.finishSlot(j, i, Response{
				Val:           val,
				Shard:         sh.id,
				LatencyCycles: sh.k.Clk.Cycles() - at,
			})
			return
		}
	}
	cp := sh.ensureClient(r.Key)
	if sh.qos != nil {
		cp.tenant = r.Tenant
	}
	pc := &pendingCall{funcID: r.FuncID, args: r.Args, job: j, idx: i, cp: cp, at: at}
	cp.inflight++
	cp.queue = append(cp.queue, pc)
	sh.pcs = append(sh.pcs, pc)
	sh.submitted++
	sh.k.Wakeup(&cp.park)
}

// drainInbox admits further call jobs that arrived while the stretch
// runs, up to maxBatch jobs per stretch. The first control or barrier
// job seen is stashed — it executes after the stretch — and stops
// further admission so inbox order is preserved.
func (sh *shard) drainInbox() {
	for sh.stash == nil && !sh.inboxClosed && sh.jobsInStretch < maxBatch {
		select {
		case j, ok := <-sh.inbox:
			if !ok {
				sh.inboxClosed = true
				return
			}
			if j.kind == jobCalls && !j.barrier {
				sh.admit(j)
			} else {
				sh.stash = j
			}
		default:
			return
		}
	}
}

// injectDue injects every scheduled arrival whose time has come.
// Cursors are visited in admission order, so a run with a fixed
// schedule injects in a fixed order.
func (sh *shard) injectDue() {
	now := sh.k.Clk.Cycles()
	live := sh.cursors[:0]
	for _, cur := range sh.cursors {
		for cur.pos < len(cur.j.reqs) && cur.base+cur.j.arrivals[cur.pos] <= now {
			sh.arrive(cur.j, cur.pos, cur.base+cur.j.arrivals[cur.pos])
			cur.pos++
		}
		if cur.pos < len(cur.j.reqs) {
			live = append(live, cur)
		}
	}
	sh.cursors = live
}

// nextArrival returns the earliest unreached scheduled arrival cycle.
func (sh *shard) nextArrival() (uint64, bool) {
	var min uint64
	ok := false
	for _, cur := range sh.cursors {
		at := cur.base + cur.j.arrivals[cur.pos]
		if !ok || at < min {
			min = at
			ok = true
		}
	}
	return min, ok
}

// stretchDone is the RunUntil predicate driving one pipelined stretch.
// Checked between kernel dispatches, it (1) admits call jobs arriving
// on the inbox, (2) injects scheduled arrivals that have come due, and
// (3) when the shard would otherwise go idle with arrivals still ahead,
// advances the simulated clock over the idle gap to the next arrival —
// which is what makes the schedule an open-loop arrival process in
// simulated time. The stretch ends when every injected call completed
// and no arrivals remain.
func (sh *shard) stretchDone() bool {
	sh.drainInbox()
	sh.injectDue()
	if sh.qos != nil {
		sh.qosPump()
	}
	for {
		if sh.completed < sh.submitted {
			return false
		}
		if sh.qos != nil && sh.qos.drr.Len() > 0 {
			// Nothing in flight but tenant queues hold work: pump. With
			// a window >= 1 the pump either injects a real call (the
			// check above then returns false) or drains the rest via the
			// result cache — either way this loop strictly progresses.
			sh.qosPump()
			continue
		}
		at, ok := sh.nextArrival()
		if !ok {
			return true
		}
		if sh.k.HasRunnable() {
			// Let in-flight bookkeeping (parking clients, exiting
			// procs) consume its cycles before any idle jump.
			return false
		}
		if now := sh.k.Clk.Cycles(); at > now {
			sh.idleCycles += at - now
			sh.k.Clk.Advance(at - now)
		}
		sh.injectDue()
		// An arrival served straight from the result cache wakes no
		// process; loop to jump the next idle gap too, rather than
		// hand the scheduler an empty run queue (spurious deadlock).
	}
}

// runStretch executes one pipelined kernel stretch seeded with first.
// On a kernel error the unserved remainder (injected and not) is failed
// explicitly so every admitted job still resolves.
func (sh *shard) runStretch(first *job) {
	sh.submitted, sh.completed = 0, 0
	sh.jobsInStretch = 0
	sh.pcs = sh.pcs[:0]
	sh.admit(first)
	runErr := sh.k.RunUntil(sh.stretchDone, 0)

	if runErr != nil || sh.completed < sh.submitted || len(sh.cursors) > 0 ||
		(sh.qos != nil && sh.qos.drr.Len() > 0) {
		err := runErr
		if err == nil {
			err = errors.New("request not served")
		}
		resp := Response{Err: fmt.Errorf("fleet: shard %d: %w", sh.id, err), Shard: sh.id}
		for _, pc := range sh.pcs {
			sh.finish(pc, resp)
		}
		for _, cur := range sh.cursors {
			for ; cur.pos < len(cur.j.reqs); cur.pos++ {
				sh.finishSlot(cur.j, cur.pos, resp)
			}
		}
		sh.cursors = sh.cursors[:0]
		if sh.qos != nil {
			// Never-injected arrivals still queued by tenant resolve
			// like the cursors above; no pump runs after RunUntil
			// returned, so this drains to empty.
			sh.qosFail(resp)
		}
	}
	sh.pcs = sh.pcs[:0]
}

// ensureClient returns the live client process for key, spawning (and
// possibly evicting an idle LRU session first) when absent or dead.
func (sh *shard) ensureClient(key string) *clientProc {
	cp := sh.clients[key]
	if cp != nil && cp.proc.State != kern.StateZombie && cp.proc.State != kern.StateDead {
		cp.lastUse = sh.seq
		return cp
	}
	if cp != nil {
		// Respawning over a dead client: drop its PID index entry.
		delete(sh.byPID, cp.proc.PID)
		sh.dropLive(cp)
		sh.k.Release(cp.proc)
	}
	if cp == nil && sh.cfg.maxSessions > 0 &&
		len(sh.clients) >= sh.cfg.maxSessions {
		sh.evictLRU()
	}
	sh.spawned++
	cp = &clientProc{key: key, born: sh.spawned, lastUse: sh.seq}
	cp.queue = cp.queue1[:0]
	cp.steps = clientSteps{sh: sh, cp: cp, attach: core.Handshake{
		Module:     sh.cfg.module,
		Version:    sh.cfg.version,
		Credential: sh.cfg.credential,
	}}
	cp.proc = sh.k.SpawnStepper("fleet-client:"+key,
		kern.Cred{UID: sh.cfg.clientUID, Name: sh.cfg.clientName}, &cp.steps)
	sh.clients[key] = cp
	sh.live = append(sh.live, cp)
	sh.byPID[cp.proc.PID] = cp
	return cp
}

// dropLive removes cp from the spawn-ordered client list.
func (sh *shard) dropLive(cp *clientProc) {
	if i := slices.Index(sh.live, cp); i >= 0 {
		sh.live = slices.Delete(sh.live, i, i+1)
	}
}

// evictLRU reclaims the least-recently-used idle session, the first
// spawned among equals. Clients with calls in flight, or touched
// by the job currently being admitted, are never evicted; if every
// session is busy the cap is soft. With QoS on, the victim comes from
// the class furthest over its weighted session share first — so an
// aggressor's key churn recycles the aggressor's own warm sessions
// instead of evicting a victim tenant's.
func (sh *shard) evictLRU() {
	if sh.qos != nil {
		sh.evictLRUTenant()
		return
	}
	var victim *clientProc
	for _, cp := range sh.live {
		if cp.inflight > 0 || cp.lastUse == sh.seq {
			continue
		}
		// sh.live is in spawn order: the first of equal lastUse wins.
		if victim == nil || cp.lastUse < victim.lastUse {
			victim = cp
		}
	}
	if victim != nil {
		sh.evict(victim.key)
		sh.evictions++
	}
}

// evictLRUTenant is the QoS victim selection: rank eligible sessions by
// how far their class sits over its weighted share of warm sessions
// (overShare = classSessions*totalWeight - classWeight*totalSessions,
// positive means over-share), then LRU, then spawn order. The ordering
// is a strict total order on integers with a unique final tie-break
// (born).
func (sh *shard) evictLRUTenant() {
	q := sh.qos
	counts := make([]int, len(q.names))
	total := 0
	for _, cp := range sh.live {
		counts[q.classOf(cp.tenant)]++
		total++
	}
	var victim *clientProc
	var vOver int
	for _, cp := range sh.live {
		if cp.inflight > 0 || cp.lastUse == sh.seq {
			continue
		}
		c := q.classOf(cp.tenant)
		over := counts[c]*q.totalW - q.weight[c]*total
		if victim == nil || over > vOver ||
			(over == vOver && (cp.lastUse < victim.lastUse ||
				(cp.lastUse == victim.lastUse && cp.born < victim.born))) {
			victim, vOver = cp, over
		}
	}
	if victim != nil {
		sh.evict(victim.key)
		sh.evictions++
	}
}

// evict tears down key's session and reports the eviction, so the
// placement reclaims the key's binding on this shard: the key's next
// request may land anywhere and pool load tracks live sessions rather
// than cumulative history.
func (sh *shard) evict(key string) {
	if sh.teardown(key) && sh.onEvict != nil {
		sh.onEvict(key)
	}
}

// teardown kills key's session, reporting whether there was one:
// killing the client process runs the SecModule exit hooks, which close
// the session and kill the handle. The kernel half of a committed move
// (a migration's old copy, a drained replica) tears down without
// reporting an eviction: the commit already moved the binding, and a
// report landing after a later commit of the same round could drop the
// binding that commit made on this shard.
func (sh *shard) teardown(key string) bool {
	cp := sh.clients[key]
	if cp == nil {
		return false
	}
	if sh.ring != nil {
		sh.ring.Emit(trace.Event{
			Kind:   trace.KEvict,
			Shard:  sh.id,
			Cycles: sh.k.Clk.Cycles(),
			Key:    key,
		})
	}
	delete(sh.clients, key)
	sh.dropLive(cp)
	delete(sh.byPID, cp.proc.PID)
	sh.k.Kill(cp.proc, kern.SIGKILL)
	sh.k.Release(cp.proc)
	return true
}

// emitSpan records one control-job span from `before` to the current
// clock on the shard's flight-recorder lane (no-op without tracing).
func (sh *shard) emitSpan(kind trace.Kind, before uint64, key, note string) {
	if sh.ring == nil {
		return
	}
	sh.ring.Emit(trace.Event{
		Kind:   kind,
		Shard:  sh.id,
		Cycles: before,
		Dur:    sh.k.Clk.Cycles() - before,
		Key:    key,
		Note:   note,
	})
}

// warm pre-attaches key's session so a migrated-in key serves its
// first call from a warm session instead of paying find + policy +
// fork on the new shard. The client is spawned (possibly LRU-evicting
// an idle session, exactly like an admission) and the kernel runs
// until the attach handshake completed and everyone parked again. A
// key that already has a live session here is a no-op.
func (sh *shard) warm(key string) {
	sh.seq++ // LRU epoch: the warming key must not evict itself
	sh.ensureClient(key)
	if err := sh.k.RunUntil(func() bool { return !sh.k.HasRunnable() }, 0); err != nil && sh.err == nil {
		sh.err = fmt.Errorf("fleet: shard %d warm %q: %w", sh.id, key, err)
	}
}

// warmChecked warms a key's session, honoring a chaos-corrupted
// handoff: the warmed session is torn down again immediately (firing
// the eviction hook, so the binding is reclaimed and the key
// re-allocates cold on its next call). Returns whether the warm stuck.
func (sh *shard) warmChecked(j *job) bool {
	sh.warm(j.key)
	if !j.corrupt {
		return true
	}
	sh.evict(j.key)
	sh.corruptWarms++
	return false
}

// snapshot merges the shard's counters.
func (sh *shard) snapshot() ShardStats {
	live := 0
	for _, cp := range sh.live {
		if cp.proc.State != kern.StateZombie && cp.proc.State != kern.StateDead {
			live++
		}
	}
	st := ShardStats{
		Shard:           sh.id,
		Profile:         sh.profile.Name,
		Cycles:          sh.k.Clk.Cycles(),
		Ticks:           sh.k.Clk.Ticks(),
		Calls:           sh.sm.Calls,
		SessionsOpened:  sh.sm.SessionsOpened,
		PolicyChecks:    sh.sm.PolicyChecks,
		ContextSwitches: sh.k.ContextSwitches,
		Syscalls:        sh.k.SyscallCount,
		LiveSessions:    live,
		Evictions:       sh.evictions,
		MigratedOut:     sh.migratedOut,
		MigratedIn:      sh.migratedIn,
		ReplicasIn:      sh.replicasIn,
		ReplicasOut:     sh.replicasOut,
		IdleCycles:      sh.idleCycles,
		Rewarms:         sh.rewarms,
		RewarmMaxCycles: sh.rewarmMax,
		StallCycles:     sh.stallCycles,
		SessionsDropped: sh.drops,
		CorruptWarms:    sh.corruptWarms,
		WarmMaxCycles:   sh.warmMax,
	}
	if sh.cache != nil {
		cs := sh.cache.Snapshot()
		st.CacheHits, st.CacheMisses, st.CacheEvictions = cs.Hits, cs.Misses, cs.Evictions
	}
	if q := sh.qos; q != nil {
		sessions := make([]int, len(q.names))
		for _, cp := range sh.live {
			if cp.proc.State != kern.StateZombie && cp.proc.State != kern.StateDead {
				sessions[q.classOf(cp.tenant)]++
			}
		}
		st.Tenants = make(map[string]TenantStats, len(q.names))
		for i, name := range q.names {
			st.Tenants[name] = TenantStats{
				Admitted: q.admitted[i],
				Shed:     q.shed[i],
				QueueMax: q.queueMax[i],
				Sessions: sessions[i],
			}
		}
	}
	return st
}

// shutdown unparks every client with the closing flag set and drains
// the kernel until all processes (clients and their handles) exited.
// Clients are woken in spawn order, so the final cycle counts stay
// deterministic.
func (sh *shard) shutdown() {
	for _, cp := range sh.live {
		cp.closing = true
		sh.k.Wakeup(&cp.park)
	}
	if err := sh.k.Run(0); err != nil && !errors.Is(err, kern.ErrDeadlock) {
		sh.err = fmt.Errorf("fleet: shard %d shutdown: %w", sh.id, err)
	}
	sh.final = sh.snapshot()
}
