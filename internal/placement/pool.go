package placement

import (
	"slices"
	"sort"
	"sync"
)

// Pool is the sticky client-key -> shard binding table every strategy
// routes through, modeled on the IPAM allocation pools of the related
// k8s-ipam repos: a key is allocated a shard on first sight
// (least-loaded, lowest index on ties, so allocation is deterministic
// given arrival order), keeps that shard for as long as its session is
// held (sticky), and returns its slot on release or eviction, after
// which the key may be re-allocated anywhere.
//
// On a heterogeneous fleet the pool is capacity-aware: allocation
// minimizes the *cost-weighted* load (bindings x the shard's
// machine-class cost factor), so a shard 2.5x slower than baseline
// receives roughly 1/2.5 the keys. With uniform weights this reduces
// exactly to the historical least-loaded rule.
//
// Unlike a plain IPAM pool, a key may hold bindings on several shards
// at once — the replica set the Replicated strategy fans hot keys out
// over. The first binding is the primary; replicas are added and
// dropped one shard at a time, and evicting the primary promotes the
// next replica.
//
// A shard can also die (ReclaimShard — the ipam dead-owner reclaim):
// its bindings are reclaimed in one sweep and the shard is excluded
// from every later allocation, rebind, and replica placement.
type Pool struct {
	mu     sync.Mutex
	assign map[string]binding
	load   []int // bindings per shard
	// weight is the per-shard cost factor (nil = homogeneous).
	weight []float64
	// down marks dead shards: never allocated, never a move target.
	down []bool
	// draining marks shards being retired on purpose: existing bindings
	// keep routing there until their drain moves commit, but the shard
	// takes no new keys, rebinds, or replicas.
	draining []bool
	// observe, when set, is called after every primary handoff — the
	// dropped primary of a replicated key, with the surviving replica
	// that took over (see SetObserver). Fired outside p.mu.
	observe func(key string, from, to int)
}

// binding is one key's shards. A singly bound key holds only its
// primary; a key with replicas also holds its whole set, primary
// first, so only a replica set allocates.
type binding struct {
	primary int
	set     []int // nil while singly bound
}

// bindingOf returns the binding of a non-empty set, primary first.
func bindingOf(set []int) binding {
	if len(set) == 1 {
		return binding{primary: set[0]}
	}
	return binding{primary: set[0], set: set}
}

// n returns how many shards the key is bound to.
func (b binding) n() int {
	if b.set == nil {
		return 1
	}
	return len(b.set)
}

// has reports whether the key is bound to shard sid.
func (b binding) has(sid int) bool {
	if b.set == nil {
		return b.primary == sid
	}
	return slices.Contains(b.set, sid)
}

// SetObserver installs a callback fired after every primary failover:
// key's primary binding on `from` was dropped and the surviving
// replica on `to` was promoted in its place. This covers explicit
// promotions (Promote, the MovePromote commit), dead-owner reclaims
// (ReclaimShard failovers whose dropped binding was the primary), and
// primary evictions (PutIf). The callback runs outside the pool lock —
// it may call back into the pool — but ordering across concurrent pool
// operations is not defined beyond "after the handoff committed". The
// fleet's trace recorder is the intended consumer.
func (p *Pool) SetObserver(fn func(key string, from, to int)) {
	p.mu.Lock()
	p.observe = fn
	p.mu.Unlock()
}

// dropPromoting drops key's binding on sid like dropLocked and returns
// the newly promoted primary when the dropped binding was the primary
// of a replicated key, -1 otherwise. Caller holds p.mu and fires the
// observer after unlocking.
func (p *Pool) dropPromoting(key string, sid int) int {
	b := p.assign[key]
	wasPrimary := b.n() > 1 && b.primary == sid
	if !p.dropLocked(key, sid) {
		return -1
	}
	if wasPrimary {
		return p.assign[key].primary
	}
	return -1
}

// NewPool returns an empty pool over the given number of shards.
func NewPool(shards int) *Pool {
	return &Pool{
		assign:   map[string]binding{},
		load:     make([]int, shards),
		down:     make([]bool, shards),
		draining: make([]bool, shards),
	}
}

// AddShard grows the pool by one shard with the given cost factor
// (weight <= 0 means baseline) and returns its id. The new shard
// starts empty and immediately competes for allocations — on a warm
// pool it is the least loaded by construction, so fresh keys land
// there first.
func (p *Pool) AddShard(weight float64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	sid := len(p.load)
	p.load = append(p.load, 0)
	p.down = append(p.down, false)
	p.draining = append(p.draining, false)
	if p.weight != nil || (weight > 0 && weight != 1.0) {
		for len(p.weight) < sid {
			p.weight = append(p.weight, 1.0)
		}
		w := weight
		if w <= 0 {
			w = 1.0
		}
		p.weight = append(p.weight, w)
	}
	return sid
}

// keysOnLocked returns every key holding a binding on shard sid,
// sorted: the deterministic sweep list of a drain plan or a reclaim.
// Caller holds p.mu.
func (p *Pool) keysOnLocked(sid int) []string {
	var keys []string
	for key, b := range p.assign {
		if b.has(sid) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}

// PlanDrain marks shard sid draining and plans the evacuation of every
// binding it holds, visiting keys in sorted order so the plan is
// deterministic. Singly-bound keys are planned a MoveMigrate onto the
// least-loaded live shard (counting the loads the plan itself adds, so
// a big drain spreads instead of dogpiling one target), replicated
// primaries a MovePromote onto their next replica, and plain replicas
// a MoveDrain. Planning against a down or already-draining shard
// returns nil.
func (p *Pool) PlanDrain(sid int) []Move {
	p.mu.Lock()
	defer p.mu.Unlock()
	if sid < 0 || sid >= len(p.load) || p.down[sid] || p.draining[sid] {
		return nil
	}
	p.draining[sid] = true
	keys := p.keysOnLocked(sid)
	extra := make([]int, len(p.load))
	var moves []Move
	for _, key := range keys {
		b := p.assign[key]
		switch {
		case b.n() == 1:
			to, ok := p.leastLoadedPlanned(extra)
			if !ok {
				continue // nowhere to go; the OnShardDown fence will retry
			}
			extra[to]++
			moves = append(moves, Move{Kind: MoveMigrate, Key: key, From: sid, To: to})
		case b.primary == sid:
			moves = append(moves, Move{Kind: MovePromote, Key: key, From: sid, To: b.set[1]})
		default:
			moves = append(moves, Move{Kind: MoveDrain, Key: key, From: sid})
		}
	}
	return moves
}

// leastLoadedPlanned is LeastLoadedExcluding plus the extra bindings an
// in-progress plan has already assigned per shard. Caller holds p.mu.
func (p *Pool) leastLoadedPlanned(extra []int) (int, bool) {
	sid, best, found := 0, 0.0, false
	for i := range p.load {
		if p.down[i] || p.draining[i] {
			continue
		}
		w := 1.0
		if i < len(p.weight) && p.weight[i] > 0 {
			w = p.weight[i]
		}
		c := float64(p.load[i]+extra[i]+1) * w
		if !found || c < best {
			sid, best, found = i, c, true
		}
	}
	return sid, found
}

// Promote drops key's primary binding on `from`, promoting the next
// replica to primary — the drain primitive for replicated keys, where
// Rebind (singly-bound only) and DropReplica (never the primary) both
// refuse. It fails unless the key's primary is still `from` and at
// least one other binding survives to take over.
func (p *Pool) Promote(key string, from int) bool {
	p.mu.Lock()
	b, ok := p.assign[key]
	if !ok || b.n() < 2 || b.primary != from {
		p.mu.Unlock()
		return false
	}
	to := p.dropPromoting(key, from)
	obs := p.observe
	p.mu.Unlock()
	if to >= 0 && obs != nil {
		obs(key, from, to)
	}
	return to >= 0
}

// NewWeightedPool returns an empty pool whose allocation weighs each
// shard's load by its cost factor.
func NewWeightedPool(weights []float64) *Pool {
	p := NewPool(len(weights))
	p.weight = append([]float64(nil), weights...)
	return p
}

// Get returns key's primary shard, allocating the shard with the
// lowest cost-weighted load — (bindings+1) x cost factor, lowest index
// on ties — when the key is unbound.
func (p *Pool) Get(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.getLocked(key).primary
}

// getLocked returns key's binding with one lookup, first binding an
// unbound key as Get describes. Caller holds p.mu.
func (p *Pool) getLocked(key string) binding {
	if b, ok := p.assign[key]; ok {
		return b
	}
	sid, best := -1, 0.0
	for i := 0; i < len(p.load); i++ {
		if p.down[i] || p.draining[i] {
			continue
		}
		if c := p.slotCost(i); sid < 0 || c < best {
			sid, best = i, c
		}
	}
	if sid < 0 {
		// Every shard down — the fleet never lets this happen (the last
		// live shard cannot be killed or drained); fall back to 0 rather
		// than panic.
		sid = 0
	}
	p.assign[key] = binding{primary: sid}
	p.load[sid]++
	return binding{primary: sid}
}

// slotCost is the weighted load shard i would carry after taking one
// more binding.
func (p *Pool) slotCost(i int) float64 {
	w := 1.0
	if i < len(p.weight) && p.weight[i] > 0 {
		w = p.weight[i]
	}
	return float64(p.load[i]+1) * w
}

// Lookup returns key's current primary shard without allocating.
func (p *Pool) Lookup(key string) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.assign[key]; ok {
		return b.primary, true
	}
	return 0, false
}

// Replicas returns every shard bound to key, primary first.
func (p *Pool) Replicas(key string) []int { return p.AppendReplicas(nil, key) }

// AppendReplicas appends every shard bound to key, primary first, to
// buf and returns it.
func (p *Pool) AppendReplicas(buf []int, key string) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.assign[key]
	switch {
	case !ok:
		return buf
	case b.set == nil:
		return append(buf, b.primary)
	}
	return append(buf, b.set...)
}

// GetReplicas is Get plus the replica set under one lock and one
// lookup — the replicating strategy's hot path. It appends the replica
// set, primary first, to buf and returns it, and appends nothing unless
// the key holds more than one binding, so a caller passing a large
// enough buffer allocates nothing.
func (p *Pool) GetReplicas(key string, buf []int) (primary int, reps []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.getLocked(key)
	return b.primary, append(buf, b.set...)
}

// Put reclaims every binding of key — primary and replicas. It is a
// no-op for unbound keys.
func (p *Pool) Put(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.assign[key]
	if !ok {
		return
	}
	if b.set == nil {
		p.load[b.primary]--
	}
	for _, sid := range b.set {
		p.load[sid]--
	}
	delete(p.assign, key)
}

// PutIf reclaims key's binding on sid only — the shard-side reclaim on
// LRU eviction or a replica drain. Dropping the primary promotes the
// next replica; an in-flight call may already have re-allocated the
// key elsewhere, in which case nothing happens (freeing a newer
// binding would corrupt the load accounting).
func (p *Pool) PutIf(key string, sid int) {
	p.mu.Lock()
	to := p.dropPromoting(key, sid)
	obs := p.observe
	p.mu.Unlock()
	if to >= 0 && obs != nil {
		obs(key, sid, to)
	}
}

// dropLocked removes key's binding on sid, if present.
func (p *Pool) dropLocked(key string, sid int) bool {
	b, ok := p.assign[key]
	if !ok || !b.has(sid) {
		return false
	}
	p.load[sid]--
	if b.set == nil {
		delete(p.assign, key)
	} else {
		p.assign[key] = bindingOf(slices.DeleteFunc(b.set, func(cur int) bool { return cur == sid }))
	}
	return true
}

// Rebind atomically moves key's binding from shard `from` to shard
// `to` — the migration primitive static IPAM allocation lacks. It
// succeeds only when the key is still singly bound to `from` (a
// concurrent release, re-allocation, or replication loses the race and
// the migration is skipped), so load accounting can never drift.
func (p *Pool) Rebind(key string, from, to int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.assign[key]
	if !ok || b.n() != 1 || b.primary != from || to < 0 || to >= len(p.load) || p.down[to] || p.draining[to] {
		return false
	}
	p.assign[key] = binding{primary: to}
	p.load[from]--
	p.load[to]++
	return true
}

// AddReplica binds key to shard `to` as an additional replica. Like
// Rebind it validates the plan against the current binding: it fails
// when the key's primary is no longer `from` (released and
// re-allocated since the plan), the key is already bound to `to`, or
// `to` is out of range — so a stale replication plan can never attach
// a replica to a key that was re-homed underneath it.
func (p *Pool) AddReplica(key string, from, to int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.assign[key]
	if !ok || b.primary != from || to < 0 || to >= len(p.load) || p.down[to] || p.draining[to] || b.has(to) {
		return false
	}
	set := []int{b.primary, to}
	if b.set != nil {
		set = append(b.set, to)
	}
	p.assign[key] = binding{primary: b.primary, set: set}
	p.load[to]++
	return true
}

// DropReplica removes key's replica binding on `from`. The primary is
// never dropped this way (use Rebind/Put/PutIf), so a replicated key
// always keeps a shard that serves its non-idempotent calls.
func (p *Pool) DropReplica(key string, from int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.assign[key]
	if !ok || b.n() < 2 || b.primary == from {
		return false
	}
	return p.dropLocked(key, from)
}

// LeastLoadedExcluding returns the shard with the lowest cost-weighted
// load among those not in `excl` (lowest index on ties), or false when
// every shard is excluded. Down shards are always excluded.
func (p *Pool) LeastLoadedExcluding(excl map[int]bool) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sid, best, found := 0, 0.0, false
	for i := 0; i < len(p.load); i++ {
		if excl[i] || p.down[i] || p.draining[i] {
			continue
		}
		if c := p.slotCost(i); !found || c < best {
			sid, best, found = i, c, true
		}
	}
	return sid, found
}

// appendReplicatedKeys appends every key holding more than one binding
// to buf, in no particular order, and returns it.
func (p *Pool) appendReplicatedKeys(buf []string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, b := range p.assign {
		if b.n() > 1 {
			buf = append(buf, key)
		}
	}
	return buf
}

// ReclaimShard marks shard sid dead and reclaims every binding it
// holds in one sweep — the ipam dead-owner reclaim. Keys are visited
// in sorted order, so the sweep is deterministic. Each affected key
// falls into one of two classes, reported separately:
//
//   - failovers: keys that kept at least one surviving binding — a
//     replica was promoted (or the set just shrank); their sessions on
//     the survivors are already warm, so nothing more is needed.
//   - orphans: keys whose only binding died; they are left unbound and
//     must be re-allocated (Get) and re-warmed by the caller.
//
// A down shard is never allocated again; reclaiming an already-down
// shard is a no-op.
func (p *Pool) ReclaimShard(sid int) (orphans, failovers []string) {
	p.mu.Lock()
	if sid < 0 || sid >= len(p.load) || p.down[sid] {
		p.mu.Unlock()
		return nil, nil
	}
	p.down[sid] = true
	keys := p.keysOnLocked(sid)
	type promo struct {
		key string
		to  int
	}
	var promos []promo
	for _, key := range keys {
		if to := p.dropPromoting(key, sid); to >= 0 {
			promos = append(promos, promo{key, to})
		}
		if _, survives := p.assign[key]; survives {
			failovers = append(failovers, key)
		} else {
			orphans = append(orphans, key)
		}
	}
	obs := p.observe
	p.mu.Unlock()
	if obs != nil {
		for _, pr := range promos {
			obs(pr.key, sid, pr.to)
		}
	}
	return orphans, failovers
}

// Down reports whether shard sid has been reclaimed.
func (p *Pool) Down(sid int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return sid >= 0 && sid < len(p.down) && p.down[sid]
}

// appendUnavailable appends, per shard, whether it takes no new keys,
// rebinds or replicas (it is down or draining) to buf and returns it.
func (p *Pool) appendUnavailable(buf []bool) []bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, d := range p.down {
		buf = append(buf, d || p.draining[i])
	}
	return buf
}

// LiveShards returns how many shards are still allocatable — neither
// down nor draining.
func (p *Pool) LiveShards() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i, d := range p.down {
		if !d && !p.draining[i] {
			n++
		}
	}
	return n
}

// Load returns a snapshot of per-shard binding counts.
func (p *Pool) Load() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(p.load))
	copy(out, p.load)
	return out
}

// Assigned returns the number of keys holding at least one binding.
func (p *Pool) Assigned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.assign)
}
