package loadmgr

import "slices"

// ResultCache memoizes responses of idempotent protected functions for
// one shard: a bounded LRU keyed by one 64-bit hash of the module, the
// function and the arguments. An idempotent function's result depends
// only on its arguments (the module's spec declares which functions
// qualify), so a hit can answer without dispatching to the handle at
// all. Every hit re-verifies the module, the function and the full
// argument words against the stored entry — a hash collision demotes
// to a miss — so a cached answer is byte-for-byte the answer the
// module would have produced.
//
// Entries live in one array, linked in recency order by index, so a
// lookup is one uint64-keyed map probe and a hit or a put into a full
// cache allocates nothing.
//
// The cache is single-owner (one per shard goroutine) and therefore
// unlocked; the fleet merges the counters into its stats snapshots.
type ResultCache struct {
	max   int
	index map[uint64]int // call hash -> entry
	ents  []cacheEntry
	// head and tail are the most and least recently used entries, -1
	// while the cache is empty.
	head, tail int

	hits, misses, evictions uint64
}

// cacheEntry is one memoized response with its verification fields.
type cacheEntry struct {
	hash   uint64
	module int
	fn     uint32
	val    uint32
	args   []uint32
	// prev and next are the neighbours toward head and tail, -1 at the
	// ends.
	prev, next int
}

// NewResultCache builds a cache holding at most max entries (min 1).
func NewResultCache(max int) *ResultCache {
	if max < 1 {
		max = 1
	}
	return &ResultCache{max: max, index: map[uint64]int{}, head: -1, tail: -1}
}

// FNV-1a parameters.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// HashArgs is FNV-1a over the argument words (and the argument count,
// so (1) and (1,0) differ even though trailing zeros hash alike).
func HashArgs(args []uint32) uint64 { return hashWords(offset64, args) }

// hashCall is the table key of a call: HashArgs with the module and the
// function folded in first.
func hashCall(module int, fn uint32, args []uint32) uint64 {
	return hashWords(mix32(mix32(offset64, uint32(module)), fn), args)
}

// hashWords continues FNV-1a hash h over the argument count and words.
func hashWords(h uint64, args []uint32) uint64 {
	h = (h ^ uint64(byte(len(args)))) * prime64
	for _, a := range args {
		h = mix32(h, a)
	}
	return h
}

// mix32 continues FNV-1a hash h over the four bytes of w, low first.
func mix32(h uint64, w uint32) uint64 {
	h = (h ^ uint64(byte(w))) * prime64
	h = (h ^ uint64(byte(w>>8))) * prime64
	h = (h ^ uint64(byte(w>>16))) * prime64
	return (h ^ uint64(byte(w>>24))) * prime64
}

// Get looks up a memoized response. A hash collision (same hash,
// different module, function or args) counts as a miss.
func (c *ResultCache) Get(module int, fn uint32, args []uint32) (val uint32, ok bool) {
	i, found := c.index[hashCall(module, fn, args)]
	if !found {
		c.misses++
		return 0, false
	}
	e := &c.ents[i]
	if e.module != module || e.fn != fn || !slices.Equal(e.args, args) {
		c.misses++
		return 0, false
	}
	c.touch(i)
	c.hits++
	return e.val, true
}

// Put memoizes a successful response, evicting the least recently used
// entry when full. Only errno-0 responses belong in the cache; errors
// are environmental, not functions of the arguments. A put into a full
// cache reuses the evicted entry, so it allocates nothing once the
// entry's args buffer has grown.
func (c *ResultCache) Put(module int, fn uint32, args []uint32, val uint32) {
	h := hashCall(module, fn, args)
	i, found := c.index[h]
	switch {
	case found:
		// Overwrite (hash collision slot reuse keeps the map bounded).
	case len(c.ents) >= c.max:
		i = c.tail
		delete(c.index, c.ents[i].hash)
		c.evictions++
		c.index[h] = i
	default:
		i = len(c.ents)
		c.ents = append(c.ents, cacheEntry{})
		c.pushFront(i)
		c.index[h] = i
	}
	e := &c.ents[i]
	e.hash, e.module, e.fn, e.args, e.val = h, module, fn, append(e.args[:0], args...), val
	c.touch(i)
}

// touch makes entry i the most recently used.
func (c *ResultCache) touch(i int) {
	if c.head == i {
		return
	}
	e := &c.ents[i]
	c.ents[e.prev].next = e.next // i is not the head, so it has a prev
	if e.next >= 0 {
		c.ents[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
	c.pushFront(i)
}

// pushFront links unlinked entry i in as the most recently used.
func (c *ResultCache) pushFront(i int) {
	e := &c.ents[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.ents[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// Len returns the live entry count.
func (c *ResultCache) Len() int { return len(c.ents) }

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
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Live: len(c.ents)}
}
