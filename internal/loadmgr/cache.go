package loadmgr

import "container/list"

// ResultCache memoizes responses of idempotent protected functions for
// one shard: a bounded LRU keyed by (module, function, args-hash). An
// idempotent function's result depends only on its arguments (the
// module's spec declares which functions qualify), so a hit can answer
// without dispatching to the handle at all. Every hit re-verifies the
// full argument words against the stored entry — an args-hash collision
// demotes to a miss — so a cached answer is byte-for-byte the answer
// the module would have produced.
//
// The cache is single-owner (one per shard goroutine) and therefore
// unlocked; the fleet merges the counters into its stats snapshots.
type ResultCache struct {
	max     int
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recently used

	hits, misses, evictions uint64
}

// cacheKey identifies one memoized call site.
type cacheKey struct {
	module int
	fn     uint32
	hash   uint64
}

// cacheEntry is one memoized response with its verification args.
type cacheEntry struct {
	key  cacheKey
	args []uint32
	val  uint32
}

// NewResultCache builds a cache holding at most max entries (min 1).
func NewResultCache(max int) *ResultCache {
	if max < 1 {
		max = 1
	}
	return &ResultCache{
		max:     max,
		entries: map[cacheKey]*list.Element{},
		lru:     list.New(),
	}
}

// HashArgs is FNV-1a over the argument words (and the argument count,
// so (1) and (1,0) differ even though trailing zeros hash alike).
func HashArgs(args []uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mix(byte(len(args)))
	for _, a := range args {
		mix(byte(a))
		mix(byte(a >> 8))
		mix(byte(a >> 16))
		mix(byte(a >> 24))
	}
	return h
}

// sameArgs verifies a hit against the caller's exact argument words.
func sameArgs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Get looks up a memoized response. A hash collision (same hash,
// different args) counts as a miss.
func (c *ResultCache) Get(module int, fn uint32, args []uint32) (val uint32, ok bool) {
	key := cacheKey{module, fn, HashArgs(args)}
	el, found := c.entries[key]
	if !found {
		c.misses++
		return 0, false
	}
	ent := el.Value.(*cacheEntry)
	if !sameArgs(ent.args, args) {
		c.misses++
		return 0, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return ent.val, true
}

// Put memoizes a successful response, evicting the least recently used
// entry when full. Only errno-0 responses belong in the cache; errors
// are environmental, not functions of the arguments. A put into a full
// cache reuses the evicted entry, so it allocates nothing once the
// entry's args buffer has grown.
func (c *ResultCache) Put(module int, fn uint32, args []uint32, val uint32) {
	key := cacheKey{module, fn, HashArgs(args)}
	el, found := c.entries[key]
	switch {
	case found:
		// Overwrite (hash collision slot reuse keeps the map bounded).
	case c.lru.Len() >= c.max:
		el = c.lru.Back()
		delete(c.entries, el.Value.(*cacheEntry).key)
		c.evictions++
		c.entries[key] = el
	default:
		el = c.lru.PushFront(&cacheEntry{})
		c.entries[key] = el
	}
	ent := el.Value.(*cacheEntry)
	ent.key, ent.args, ent.val = key, append(ent.args[:0], args...), val
	c.lru.MoveToFront(el)
}

// Len returns the live entry count.
func (c *ResultCache) Len() int { return c.lru.Len() }

// Stats returns the hit/miss/eviction counters.
func (c *ResultCache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// CacheStats is a marshal-friendly counter snapshot: what the fleet's
// stats merge and the metrics registry read instead of positional
// Stats() returns.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Live      int    `json:"live"`
}

// Snapshot returns the current counters and live entry count.
func (c *ResultCache) Snapshot() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Live: c.lru.Len()}
}
