package tenant

import (
	"testing"
)

// FuzzTenantAdmission throws random weight/rate/burst configurations and
// scripted call storms at the admission pipeline (bucket -> shed -> DRR)
// and checks the structural invariants the fleet relies on: no panics,
// deterministic double-run, conservation (enqueued = dequeued +
// remaining), and no starvation — with every class backlogged, a
// nonzero-weight class is served at least its quantum per full round.
func FuzzTenantAdmission(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(1), uint8(10), uint8(50))
	f.Add(uint64(42), uint8(4), uint8(1), uint8(0), uint8(0), uint8(200))
	f.Add(uint64(7), uint8(3), uint8(9), uint8(30), uint8(1), uint8(120))
	f.Fuzz(func(t *testing.T, seed uint64, nClasses, wSeed, rSeed, bSeed, storm uint8) {
		n := int(nClasses)%4 + 1
		set := &Set{Classes: make([]Config, n)}
		for i := 0; i < n; i++ {
			set.Classes[i] = Config{
				Name:   string(rune('a' + i)),
				Weight: (int(wSeed) + i*3) % 7,
				Rate:   ((int(rSeed) + i*11) % 5) * 100,
				Burst:  (int(bSeed) + i) % 9,
			}
		}
		set.Knee = int(seed % 64)
		if err := set.Normalize(); err != nil {
			t.Fatalf("generated set rejected: %v", err)
		}

		run := func() ([]int, []int) {
			weights := make([]int, n)
			buckets := make([]*Bucket, n)
			totalW := 0
			for i, c := range set.Classes {
				weights[i] = c.Weight
				totalW += c.Weight
				buckets[i] = NewBucket(c.Rate, c.Burst)
			}
			d := NewDRR[int](weights)
			rng := seed | 1
			admitted := make([]int, n)
			served := make([]int, n)
			now := uint64(0)
			calls := int(storm) + n*8
			for i := 0; i < calls; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				class := int(rng>>33) % n
				now += (rng >> 12) % 100_000
				if Shed(d.ClassLen(class), weights[class], d.Len(), totalW, set.Knee) {
					continue
				}
				if b := buckets[class]; b != nil && !b.Take(now) {
					continue
				}
				d.Enqueue(class, i)
				admitted[class]++
				// Occasionally drain a little, like a shard pumping
				// between kernel dispatches.
				if rng%3 == 0 {
					if _, c, ok := d.Dequeue(); ok {
						served[c]++
					}
				}
			}
			for {
				_, c, ok := d.Dequeue()
				if !ok {
					break
				}
				served[c]++
			}
			if d.Len() != 0 {
				t.Fatalf("drained scheduler reports Len %d", d.Len())
			}
			return admitted, served
		}

		adm1, srv1 := run()
		adm2, srv2 := run()
		for i := 0; i < n; i++ {
			if adm1[i] != adm2[i] || srv1[i] != srv2[i] {
				t.Fatalf("double run diverged: admitted %v/%v served %v/%v", adm1, adm2, srv1, srv2)
			}
			if srv1[i] != adm1[i] {
				t.Fatalf("class %d: admitted %d but served %d", i, adm1[i], srv1[i])
			}
		}

		// Starvation check: fully backlog every class, then over K full
		// rounds each class with weight w must be served at least w*K - w
		// (its quantum per visit, minus at most one partial round).
		weights := make([]int, n)
		totalW := 0
		for i, c := range set.Classes {
			weights[i] = c.Weight
			totalW += c.Weight
		}
		d := NewDRR[int](weights)
		const K = 8
		for i := 0; i < n; i++ {
			for j := 0; j < totalW*K; j++ {
				d.Enqueue(i, j)
			}
		}
		served := make([]int, n)
		for i := 0; i < totalW*K; i++ {
			_, c, ok := d.Dequeue()
			if !ok {
				t.Fatalf("backlogged scheduler ran dry at %d", i)
			}
			served[c]++
		}
		for i, w := range weights {
			if served[i] < w*K-w {
				t.Fatalf("class %d (weight %d) served %d of %d dequeues, floor %d: starvation",
					i, w, served[i], totalW*K, w*K-w)
			}
		}
	})
}
