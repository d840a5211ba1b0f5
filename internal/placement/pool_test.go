package placement

import (
	"fmt"
	"sync"
	"testing"
)

func TestPoolStickyAndLeastLoaded(t *testing.T) {
	p := NewPool(3)
	// First three keys spread over the three shards.
	sids := map[int]bool{}
	for _, key := range []string{"a", "b", "c"} {
		sids[p.Get(key)] = true
	}
	if len(sids) != 3 {
		t.Fatalf("3 fresh keys landed on %d shards, want 3", len(sids))
	}
	// Sticky: repeated Gets do not move.
	for _, key := range []string{"a", "b", "c"} {
		first := p.Get(key)
		for i := 0; i < 3; i++ {
			if got := p.Get(key); got != first {
				t.Fatalf("key %s moved %d -> %d", key, first, got)
			}
		}
	}
	if got := p.Assigned(); got != 3 {
		t.Errorf("Assigned = %d, want 3", got)
	}
}

func TestPoolReclaim(t *testing.T) {
	p := NewPool(2)
	p.Get("x") // shard 0 (lowest index tie-break)
	p.Get("y") // shard 1
	if load := p.Load(); load[0] != 1 || load[1] != 1 {
		t.Fatalf("load = %v, want [1 1]", load)
	}
	p.Put("x")
	if load := p.Load(); load[0] != 0 {
		t.Fatalf("load after Put = %v, want shard 0 empty", load)
	}
	// Reclaimed slot is reused: the next fresh key goes to shard 0.
	if sid := p.Get("z"); sid != 0 {
		t.Errorf("fresh key after reclaim went to shard %d, want 0", sid)
	}
	p.Put("unknown") // no-op
	if got := p.Assigned(); got != 2 {
		t.Errorf("Assigned = %d, want 2", got)
	}
}

func TestPoolBalance(t *testing.T) {
	p := NewPool(4)
	for i := 0; i < 64; i++ {
		p.Get(fmt.Sprintf("k%02d", i))
	}
	for sid, n := range p.Load() {
		if n != 16 {
			t.Errorf("shard %d load = %d, want 16", sid, n)
		}
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d-%d", g, i%10)
				sid := p.Get(key)
				if again := p.Get(key); again != sid {
					t.Errorf("key %s moved %d -> %d", key, sid, again)
				}
				if i%3 == 0 {
					p.Put(key)
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range p.Load() {
		if n < 0 {
			t.Errorf("negative load: %v", p.Load())
		}
		total += n
	}
	if total != p.Assigned() {
		t.Errorf("load sum %d != assigned %d (no replicas in play)", total, p.Assigned())
	}
}

func TestPoolReplicaLifecycle(t *testing.T) {
	p := NewPool(4)
	primary := p.Get("hot")
	if primary != 0 {
		t.Fatalf("primary = %d, want 0", primary)
	}
	if !p.AddReplica("hot", 0, 2) || !p.AddReplica("hot", 0, 3) {
		t.Fatal("AddReplica failed on free shards")
	}
	if p.AddReplica("hot", 0, 2) {
		t.Error("AddReplica accepted a duplicate shard")
	}
	if p.AddReplica("cold", 0, 1) {
		t.Error("AddReplica accepted an unbound key")
	}
	if p.AddReplica("hot", 1, 1) {
		t.Error("AddReplica accepted a stale primary (plan raced a re-allocation)")
	}
	if got := p.Replicas("hot"); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Replicas = %v, want [0 2 3]", got)
	}
	if load := p.Load(); load[0]+load[1]+load[2]+load[3] != 3 {
		t.Fatalf("load = %v, want 3 bindings total", load)
	}
	// One key, three bindings.
	if got := p.Assigned(); got != 1 {
		t.Errorf("Assigned = %d, want 1", got)
	}

	// The primary never drops via DropReplica.
	if p.DropReplica("hot", 0) {
		t.Error("DropReplica removed the primary")
	}
	if !p.DropReplica("hot", 3) {
		t.Error("DropReplica failed on a live replica")
	}
	// Rebind refuses replicated keys: their home is the whole set.
	if p.Rebind("hot", 0, 1) {
		t.Error("Rebind moved a replicated key")
	}

	// Evicting the primary promotes the next replica.
	p.PutIf("hot", 0)
	if sid, ok := p.Lookup("hot"); !ok || sid != 2 {
		t.Fatalf("after primary eviction Lookup = (%d, %v), want (2, true)", sid, ok)
	}

	// Put drains the whole set.
	p.Put("hot")
	if got := p.Assigned(); got != 0 {
		t.Errorf("Assigned after Put = %d, want 0", got)
	}
	for sid, n := range p.Load() {
		if n != 0 {
			t.Errorf("shard %d load = %d after full release, want 0", sid, n)
		}
	}
}

func TestPoolLeastLoadedExcluding(t *testing.T) {
	p := NewWeightedPool([]float64{1, 1, 2.5})
	p.Get("a") // shard 0
	p.Get("b") // shard 1
	sid, ok := p.LeastLoadedExcluding(map[int]bool{0: true, 1: true})
	if !ok || sid != 2 {
		t.Fatalf("LeastLoadedExcluding = (%d, %v), want (2, true)", sid, ok)
	}
	if _, ok := p.LeastLoadedExcluding(map[int]bool{0: true, 1: true, 2: true}); ok {
		t.Error("LeastLoadedExcluding found a shard with everything excluded")
	}
	// Weighted: the empty slow shard (cost 2.5) loses to a fast shard
	// with one binding (cost (1+1)*1 = 2 < (0+1)*2.5).
	sid, _ = p.LeastLoadedExcluding(nil)
	if sid != 0 {
		t.Errorf("weighted least-loaded = %d, want 0", sid)
	}
}

// TestPoolBindAllocs: a singly bound key holds its primary by value, so
// binding a fresh key (here while another is released, at a steady
// table size) allocates nothing.
func TestPoolBindAllocs(t *testing.T) {
	const live = 64
	p := NewPool(2)
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	for _, key := range keys[:live] {
		p.Get(key)
	}
	next := live
	bind := func() {
		p.Put(keys[next-live])
		p.Get(keys[next])
		next++
	}
	if n := testing.AllocsPerRun(500, bind); n != 0 {
		t.Fatalf("fresh-key bind: %v allocs, want 0", n)
	}
	if n := p.Assigned(); n != live {
		t.Fatalf("Assigned = %d, want %d", n, live)
	}
}
