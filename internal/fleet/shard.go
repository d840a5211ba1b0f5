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
	"repro/internal/trace"
)

// SysParkNo is the fleet-only syscall a shard's client processes use to
// wait for work. It lives above the measure package's bench mark
// syscall (390) and well clear of the Figure 4 range.
const SysParkNo = 392

// maxBatch bounds how many inbox jobs a shard coalesces into one kernel
// stretch, and sizes the inbox.
const maxBatch = 256

// pendingCall is one routed request while it waits in, or runs from,
// its client's queue. It is held by value and names its request by the
// job and the request's position in the caller's sequence.
type pendingCall struct {
	j *job
	i int
	// at is the request's arrival cycle on the shard clock: its
	// scheduled time for timed jobs, the injection instant otherwise.
	// Completion minus at is the per-call latency (queueing + service).
	at uint64
}

// clientProc is one simulated client process holding a warm session.
// Exactly one exists per (shard, client key); it is spawned on the
// key's first request and lives — session, handle process and all —
// until evicted, released, or fleet shutdown. A parked client sleeps
// on its park queue.
type clientProc struct {
	key  string
	proc *kern.Proc
	// queue[head:] holds the calls waiting for the client, oldest
	// first.
	queue   []pendingCall
	head    int
	park    kern.WaitQ
	closing bool
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
	queue1 [1]pendingCall
}

// waiting reports whether calls are queued for the client.
func (cp *clientProc) waiting() bool { return cp.head < len(cp.queue) }

// push queues pc behind the waiting calls. Once the served front of
// the queue fills its array, the waiting calls move down first, so a
// client that never drains its queue keeps a bounded array.
func (cp *clientProc) push(pc pendingCall) {
	if cp.head > 0 && len(cp.queue) == cap(cp.queue) {
		n := copy(cp.queue, cp.queue[cp.head:])
		clear(cp.queue[n:])
		cp.queue, cp.head = cp.queue[:n], 0
	}
	cp.queue = append(cp.queue, pc)
}

// pop takes the oldest waiting call.
func (cp *clientProc) pop() pendingCall {
	pc := cp.queue[cp.head]
	cp.queue[cp.head] = pendingCall{}
	if cp.head++; cp.head == len(cp.queue) {
		cp.queue, cp.head = cp.queue[:0], 0
	}
	return pc
}

// latBuckets sizes the power-of-2 latency histograms: bucket i counts
// completions whose latency has bit length i (bucket 0 is latency 0),
// so the worst case (full uint64) lands in bucket 64.
const latBuckets = 65

// job is one unit of work sent to a shard: a batch of calls (immediate
// or on a timed arrival schedule), or a control job between stretches.
type job struct {
	// A batch of calls reads the caller's request sequence, plan or
	// sched (sched makes the job a schedule: each request enters the
	// shard at its At offset from the job's admission into a kernel
	// stretch), and writes each response into the caller's out at the
	// request's position. idx lists the positions of the job's own
	// requests, in order; nil means all of them. The job touches these
	// slices only until done closes.
	plan  []Request
	sched []TimedRequest
	idx   []int
	out   []Response
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
	// key and ctl make a control job: the shard calls ctl(sh, key)
	// between stretches, so every call already in its inbox ahead of the
	// job drains first. Session moves, releases and drops name a shard
	// method, which allocates nothing; stats, the autoscaler window,
	// stalls and tenant swaps are closures.
	key string
	ctl func(sh *shard, key string)
	// done closes when the job has run; enqueue makes it.
	done chan struct{}
}

// calls returns how many requests the job carries.
func (j *job) calls() int {
	switch {
	case j.idx != nil:
		return len(j.idx)
	case j.sched != nil:
		return len(j.sched)
	}
	return len(j.plan)
}

// pos returns the position in the caller's sequence of the job's k-th
// request.
func (j *job) pos(k int) int {
	if j.idx != nil {
		return j.idx[k]
	}
	return k
}

// req returns the request at position i of the caller's sequence.
func (j *job) req(i int) *Request {
	if j.sched != nil {
		return &j.sched[i].Req
	}
	return &j.plan[i]
}

// timedCursor walks one admitted schedule's arrivals.
type timedCursor struct {
	j    *job
	base uint64 // shard clock at admission; arrivals are offsets from it
	k    int    // the job's next request to arrive
}

// next returns the arrival cycle of the cursor's next request.
func (c *timedCursor) next() uint64 { return c.base + c.j.sched[c.j.pos(c.k)].At }

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
	// live holds clients' values in spawn order, the order the LRU walk
	// and shutdown visit them in.
	live  []*clientProc
	byPID map[int]*clientProc
	seq   uint64 // job admission sequence for LRU accounting

	// Stretch state: pipelined dispatch admits jobs into the running
	// kernel stretch from the RunUntil predicate, so one stretch serves
	// every call that arrives while it runs (up to maxBatch jobs).
	submitted int           // pendingCalls injected this stretch
	completed int           // pendingCalls finished this stretch
	cursors   []timedCursor // live arrival schedules
	// stranded holds clients that died this stretch with calls still
	// queued or in flight and were then replaced by a respawn: only an
	// errored stretch's abort answers those calls.
	stranded      []*clientProc
	jobsInStretch int
	stash         *job // first control job seen mid-stretch (barrier)
	inboxClosed   bool

	// st holds the shard's own counters; snapshot adds the kernel's,
	// the SecModule layer's, the cache's and the QoS classes'.
	st ShardStats

	// Result-cache and placement state (nil/zero without
	// WithResultCache, or under sticky placement): cache memoizes
	// idempotent responses, idemp marks which funcIDs qualify (from the
	// module spec), mid keys cache entries by module.
	cache *loadmgr.ResultCache
	idemp map[uint32]bool
	mid   int

	// qos, when non-nil, replaces the FIFO admit with the per-tenant
	// admission pipeline (see qos.go). Owned by the shard goroutine;
	// swapped only between stretches (a control job).
	qos *shardQOS

	// winHist buckets completed-call latencies by bit length since the
	// autoscaler last collected its window — host-side counters only, so
	// recording never perturbs the simulated clocks.
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
		st:      ShardStats{Shard: id, Profile: profile.Name},
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
	sh.k.RegisterSyscall(SysParkNo, "fleet_park", 0, sh.sysPark)
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
	if cp.closing || cp.waiting() {
		return kern.Sysret{Val: 0}
	}
	return kern.Sysret{BlockOn: &cp.park}
}

// finish completes cp's call pc: record the response (with its
// latency on the shard clock), count it against the stretch, and close
// the owning job as soon as its last call lands.
func (sh *shard) finish(cp *clientProc, pc pendingCall, resp Response) {
	cp.inflight--
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
	r := pc.j.req(pc.i)
	if sh.ring != nil {
		e := trace.Event{
			Kind:   trace.KCall,
			Shard:  sh.id,
			Cycles: pc.at,
			Dur:    resp.LatencyCycles,
			Key:    cp.key,
			FuncID: r.FuncID,
		}
		if resp.Err != nil {
			e.Note = "error"
		} else if resp.Errno != 0 {
			e.Val = int64(resp.Errno)
		}
		sh.ring.Emit(e)
	}
	if sh.cache != nil && resp.Err == nil && resp.Errno == 0 && sh.idemp[r.FuncID] {
		sh.cache.Put(sh.mid, r.FuncID, r.Args, resp.Val)
	}
	sh.finishSlot(pc.j, pc.i, resp)
}

// finishSlot writes the response of the request at position i of j's
// caller sequence and closes the job when it was the last. Used by
// finish and by the paths that answer a request without a pendingCall
// (a cache hit, a shed, an abort of arrivals never injected), which
// count nothing against the stretch.
func (sh *shard) finishSlot(j *job, i int, resp Response) {
	if resp.Err == nil {
		sh.winHist[bits.Len64(resp.LatencyCycles)]++
	}
	j.out[i] = resp
	j.pending--
	if j.pending == 0 {
		close(j.done)
	}
}

// failCalls answers every call cp holds, the one in flight and those
// queued, with resp: an errored stretch's abort. The in-flight call's
// smod_call may still return later; its result is then dropped.
func (sh *shard) failCalls(cp *clientProc, resp Response) {
	if c := &cp.steps; c.calling && c.pc.j != nil {
		sh.finish(cp, c.pc, resp)
		c.pc = pendingCall{}
	}
	for cp.waiting() {
		sh.finish(cp, cp.pop(), resp)
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
	// calling is set while the client's smod_call is outstanding, and
	// pc is that call; an errored stretch's abort answers it and leaves
	// pc with a nil job.
	calling bool
	pc      pendingCall
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
			for cp.waiting() {
				sh.finish(cp, cp.pop(), Response{Err: err})
			}
			return kern.Syscall{}, true, 1
		}
		c.nc = c.attach.Client
		return parkCall, false, 0
	case c.calling:
		if c.pc.j != nil {
			sh.finish(cp, c.pc, Response{Val: val, Errno: errno})
		}
		c.calling, c.pc = false, pendingCall{}
	case cp.closing:
		return kern.Syscall{}, true, 0
	}
	for cp.waiting() {
		pc := cp.pop()
		r := pc.j.req(pc.i)
		if sh.ring != nil {
			// The execute instant: queue wait is this minus the call's
			// inject event.
			sh.ring.Emit(trace.Event{
				Kind:   trace.KExec,
				Shard:  sh.id,
				Cycles: sh.k.Clk.Cycles(),
				Key:    cp.key,
				FuncID: r.FuncID,
			})
		}
		sc, err := c.nc.Prepare(r.FuncID, r.Args...)
		if err != nil {
			sh.finish(cp, pc, Response{Err: err})
			continue
		}
		c.calling, c.pc = true, pc
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
// control jobs run between stretches, so what they see reflects every
// job submitted before them, and are done once they ran. It exits when
// the inbox closes.
func (sh *shard) loop() {
	for {
		j, ok := sh.next()
		if !ok {
			sh.shutdown()
			return
		}
		if j.ctl == nil {
			// Its calls close done as they finish.
			sh.runStretch(j)
			continue
		}
		j.ctl(sh, j.key)
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
	n := j.calls()
	j.pending = n
	if sh.ring != nil {
		sh.ring.Emit(trace.Event{
			Kind:   trace.KAdmit,
			Shard:  sh.id,
			Cycles: sh.k.Clk.Cycles(),
			Val:    int64(n),
		})
	}
	if j.sched != nil {
		sh.cursors = append(sh.cursors, timedCursor{j: j, base: sh.k.Clk.Cycles()})
		return
	}
	now := sh.k.Clk.Cycles()
	for k := 0; k < n; k++ {
		sh.arrive(j, j.pos(k), now)
	}
}

// arrive is the admission dispatch of the request at position i of
// j's caller sequence: the tenanted pipeline when QoS is on, the
// historical direct inject otherwise.
func (sh *shard) arrive(j *job, i int, at uint64) {
	if sh.qos != nil {
		sh.qosArrive(j, i, at)
		return
	}
	sh.inject(j, i, at)
}

// inject routes request i of job j (its position in the caller's
// sequence) into its client's queue, waking the client if parked. at
// is the request's arrival cycle for latency accounting. Idempotent
// functions consult the shard's result cache first: a hit answers
// immediately — no client wake, no handle dispatch — for the cost of
// one memo-table probe.
func (sh *shard) inject(j *job, i int, at uint64) {
	r := j.req(i)
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
	cp.inflight++
	cp.push(pendingCall{j: j, i: i, at: at})
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
			if j.ctl == nil && !j.barrier {
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
		for n := cur.j.calls(); cur.k < n; cur.k++ {
			at := cur.next()
			if at > now {
				live = append(live, cur)
				break
			}
			sh.arrive(cur.j, cur.j.pos(cur.k), at)
		}
	}
	clear(sh.cursors[len(live):])
	sh.cursors = live
}

// nextArrival returns the earliest unreached scheduled arrival cycle.
func (sh *shard) nextArrival() (uint64, bool) {
	var min uint64
	ok := false
	for i := range sh.cursors {
		at := sh.cursors[i].next()
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
			sh.st.IdleCycles += at - now
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
	sh.admit(first)
	runErr := sh.k.RunUntil(sh.stretchDone, 0)

	if runErr != nil || sh.completed < sh.submitted || len(sh.cursors) > 0 ||
		(sh.qos != nil && sh.qos.drr.Len() > 0) {
		err := runErr
		if err == nil {
			err = errors.New("request not served")
		}
		resp := Response{Err: fmt.Errorf("fleet: shard %d: %w", sh.id, err), Shard: sh.id}
		for _, cp := range sh.live {
			sh.failCalls(cp, resp)
		}
		for _, cp := range sh.stranded {
			sh.failCalls(cp, resp)
		}
		for _, cur := range sh.cursors {
			for n := cur.j.calls(); cur.k < n; cur.k++ {
				sh.finishSlot(cur.j, cur.j.pos(cur.k), resp)
			}
		}
		clear(sh.cursors)
		sh.cursors = sh.cursors[:0]
		if sh.qos != nil {
			// Never-injected arrivals still queued by tenant resolve
			// like the cursors above; no pump runs after RunUntil
			// returned, so this drains to empty.
			sh.qosFail(resp)
		}
	}
	clear(sh.stranded)
	sh.stranded = sh.stranded[:0]
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
		if cp.inflight > 0 {
			sh.stranded = append(sh.stranded, cp)
		}
	}
	if cp == nil && sh.cfg.maxSessions > 0 &&
		len(sh.clients) >= sh.cfg.maxSessions {
		sh.evictLRU()
	}
	cp = &clientProc{key: key, lastUse: sh.seq}
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
// spawned among equals. Clients with calls in flight, or touched by the
// job currently being admitted, are never evicted; if every session is
// busy the cap is soft. With QoS on, sessions rank first by how far
// their class sits over its weighted share of warm sessions
// (classSessions*totalWeight - classWeight*totalSessions, positive
// means over-share), so an aggressor's key churn recycles the
// aggressor's own warm sessions instead of evicting a victim tenant's;
// without it every session ranks at zero.
func (sh *shard) evictLRU() {
	q := sh.qos
	var counts []int
	if q != nil {
		counts = q.counts
		clear(counts)
		for _, cp := range sh.live {
			counts[q.classOf(cp.tenant)]++
		}
	}
	var victim *clientProc
	var vOver int
	for _, cp := range sh.live {
		if cp.inflight > 0 || cp.lastUse == sh.seq {
			continue
		}
		over := 0
		if q != nil {
			c := q.classOf(cp.tenant)
			over = counts[c]*q.totalW - q.weight[c]*len(sh.live)
		}
		// sh.live is in spawn order: the first of equal rank wins.
		if victim == nil || over > vOver || (over == vOver && cp.lastUse < victim.lastUse) {
			victim, vOver = cp, over
		}
	}
	if victim != nil {
		sh.evict(victim.key)
		sh.st.Evictions++
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

// The halves of every session move, each a control job's ctl:
// migrateOut and replicaOut kill a key's session on the shard it leaves
// (a migration's old copy, a dropped or promoted-away replica), and
// warmIn, replicaIn and rewarmIn pre-attach it where it arrives (a
// migration's new home, a replica add, an orphan re-warm after a shard
// death). Each records its span and counts itself.
func (sh *shard) migrateOut(key string) { sh.moveOut(trace.KMigrateOut, key, &sh.st.MigratedOut) }
func (sh *shard) replicaOut(key string) { sh.moveOut(trace.KReplicaOut, key, &sh.st.ReplicasOut) }
func (sh *shard) warmIn(key string)     { sh.moveIn(trace.KWarmIn, key, false) }
func (sh *shard) replicaIn(key string)  { sh.moveIn(trace.KReplicaIn, key, false) }
func (sh *shard) rewarmIn(key string)   { sh.moveIn(trace.KRewarm, key, false) }

// moveOut tears down key's session as span and counts it in n.
func (sh *shard) moveOut(span trace.Kind, key string, n *uint64) {
	before := sh.k.Clk.Cycles()
	sh.teardown(key)
	*n++
	sh.emitSpan(span, before, key, "")
}

// moveIn warms key's session as span. A corrupt warm, a chaos-poisoned
// handoff, is torn down again at once (firing the eviction hook, so the
// binding is reclaimed and the key re-allocates cold on its next call)
// and counts only as corrupt.
func (sh *shard) moveIn(span trace.Kind, key string, corrupt bool) {
	before := sh.k.Clk.Cycles()
	sh.warm(key)
	if corrupt {
		sh.evict(key)
		sh.st.CorruptWarms++
		sh.emitSpan(span, before, key, "corrupt")
		return
	}
	d := sh.k.Clk.Cycles() - before
	switch span {
	case trace.KWarmIn:
		sh.st.MigratedIn++
	case trace.KReplicaIn:
		sh.st.ReplicasIn++
	case trace.KRewarm:
		sh.st.Rewarms++
		sh.st.RewarmMaxCycles = max(sh.st.RewarmMaxCycles, d)
	}
	sh.st.WarmMaxCycles = max(sh.st.WarmMaxCycles, d)
	sh.emitSpan(span, before, key, "")
}

// drop tears down key's live session, a chaos drop fault; the key
// recovers by re-attaching on its next call.
func (sh *shard) drop(key string) {
	if sh.clients[key] == nil {
		return
	}
	sh.evict(key)
	sh.st.SessionsDropped++
	if sh.ring != nil {
		sh.ring.Emit(trace.Event{
			Kind:   trace.KDrop,
			Shard:  sh.id,
			Cycles: sh.k.Clk.Cycles(),
			Key:    key,
		})
	}
}

// snapshot merges the shard's counters with the kernel's, the
// SecModule layer's, the result cache's and, with QoS on, the classes'.
func (sh *shard) snapshot() ShardStats {
	st := sh.st
	st.Cycles, st.Ticks = sh.k.Clk.Cycles(), sh.k.Clk.Ticks()
	st.Calls, st.SessionsOpened, st.PolicyChecks = sh.sm.Calls, sh.sm.SessionsOpened, sh.sm.PolicyChecks
	st.ContextSwitches, st.Syscalls = sh.k.ContextSwitches, sh.k.SyscallCount
	if sh.cache != nil {
		cs := sh.cache.Snapshot()
		st.CacheHits, st.CacheMisses, st.CacheEvictions = cs.Hits, cs.Misses, cs.Evictions
	}
	q := sh.qos
	if q != nil {
		for i := range q.stats {
			q.stats[i].Sessions = 0
		}
	}
	for _, cp := range sh.live {
		if cp.proc.State != kern.StateZombie && cp.proc.State != kern.StateDead {
			st.LiveSessions++
			if q != nil {
				q.stats[q.classOf(cp.tenant)].Sessions++
			}
		}
	}
	if q != nil {
		st.Tenants = make(map[string]TenantStats, len(q.names))
		for i, name := range q.names {
			st.Tenants[name] = q.stats[i]
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
