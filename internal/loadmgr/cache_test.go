package loadmgr

import "testing"

func TestCacheHitMissAndCounters(t *testing.T) {
	c := NewResultCache(4)
	if _, ok := c.Get(1, 2, []uint32{41}); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, 2, []uint32{41}, 42)
	v, ok := c.Get(1, 2, []uint32{41})
	if !ok || v != 42 {
		t.Fatalf("Get = (%d, %v), want (42, true)", v, ok)
	}
	// Different args, function, and module are all distinct entries.
	if _, ok := c.Get(1, 2, []uint32{40}); ok {
		t.Fatal("hit with different args")
	}
	if _, ok := c.Get(1, 3, []uint32{41}); ok {
		t.Fatal("hit with different funcID")
	}
	if _, ok := c.Get(2, 2, []uint32{41}); ok {
		t.Fatal("hit with different module")
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 4 || evictions != 0 {
		t.Fatalf("stats = (%d, %d, %d), want (1, 4, 0)", hits, misses, evictions)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewResultCache(2)
	c.Put(1, 1, []uint32{1}, 2)
	c.Put(1, 1, []uint32{2}, 3)
	// Touch {1} so {2} becomes the LRU victim.
	if _, ok := c.Get(1, 1, []uint32{1}); !ok {
		t.Fatal("expected hit on {1}")
	}
	c.Put(1, 1, []uint32{3}, 4)
	if _, ok := c.Get(1, 1, []uint32{2}); ok {
		t.Fatal("LRU victim {2} still cached")
	}
	if _, ok := c.Get(1, 1, []uint32{1}); !ok {
		t.Fatal("recently used {1} evicted")
	}
	if _, ok := c.Get(1, 1, []uint32{3}); !ok {
		t.Fatal("fresh {3} missing")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
}

func TestCacheArgCountMatters(t *testing.T) {
	c := NewResultCache(8)
	c.Put(1, 1, []uint32{1}, 10)
	if _, ok := c.Get(1, 1, []uint32{1, 0}); ok {
		t.Fatal("(1) and (1,0) must be distinct call sites")
	}
	if _, ok := c.Get(1, 1, nil); ok {
		t.Fatal("() and (1) must be distinct call sites")
	}
}

func TestCachePutOverwrites(t *testing.T) {
	c := NewResultCache(2)
	c.Put(1, 1, []uint32{7}, 8)
	c.Put(1, 1, []uint32{7}, 9)
	if v, ok := c.Get(1, 1, []uint32{7}); !ok || v != 9 {
		t.Fatalf("Get after overwrite = (%d, %v), want (9, true)", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("overwrite grew the cache: Len = %d", c.Len())
	}
}

func TestHashArgsSpread(t *testing.T) {
	seen := map[uint64][]uint32{}
	for i := uint32(0); i < 1000; i++ {
		args := []uint32{i, i * 3}
		h := HashArgs(args)
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %v and %v", prev, args)
		}
		seen[h] = args
	}
}

func TestCacheMinCapacity(t *testing.T) {
	c := NewResultCache(0) // clamped to 1
	c.Put(1, 1, []uint32{1}, 2)
	c.Put(1, 1, []uint32{2}, 3)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// fillCache puts n fresh keys into c, advancing args[0] for each.
func fillCache(c *ResultCache, args []uint32, n int) {
	for i := 0; i < n; i++ {
		args[0]++
		c.Put(1, 2, args, args[0])
	}
}

// TestCachePutFullAllocs: a put into a full cache reuses the entry it
// evicts, list element and args buffer included, so it allocates
// nothing.
func TestCachePutFullAllocs(t *testing.T) {
	const size = 64
	c := NewResultCache(size)
	args := []uint32{0, 7}
	fillCache(c, args, size)
	if n := testing.AllocsPerRun(1000, func() { fillCache(c, args, 1) }); n != 0 {
		t.Fatalf("Put into a full cache: %v allocs, want 0", n)
	}
	if _, _, evictions := c.Stats(); evictions != 1001 || c.Len() != size {
		t.Fatalf("evictions = %d, Len = %d, want 1001 and %d", evictions, c.Len(), size)
	}
	if v, ok := c.Get(1, 2, args); !ok || v != args[0] {
		t.Fatalf("newest entry: Get = (%d, %v), want (%d, true)", v, ok, args[0])
	}
}

// BenchmarkResultCachePut times steady-state puts into a full cache,
// each evicting the least recently used entry.
func BenchmarkResultCachePut(b *testing.B) {
	const size = 1024
	c := NewResultCache(size)
	args := []uint32{0, 7}
	fillCache(c, args, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillCache(c, args, 1)
	}
}
