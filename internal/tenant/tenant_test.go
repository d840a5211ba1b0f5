package tenant

import (
	"encoding/json"
	"testing"
)

func TestNormalizeDefaultsAndSort(t *testing.T) {
	s := &Set{Classes: []Config{
		{Name: "zeta", Rate: 95},
		{Name: "alpha", Weight: 4},
	}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Knee != DefaultKnee || s.Window != DefaultWindow {
		t.Fatalf("knee/window = %d/%d, want defaults %d/%d", s.Knee, s.Window, DefaultKnee, DefaultWindow)
	}
	if s.Classes[0].Name != "alpha" || s.Classes[1].Name != "zeta" {
		t.Fatalf("classes not sorted: %+v", s.Classes)
	}
	if s.Classes[1].Weight != DefaultWeight {
		t.Fatalf("zeta weight = %d, want default %d", s.Classes[1].Weight, DefaultWeight)
	}
	if s.Classes[1].Burst != 9 {
		t.Fatalf("zeta burst = %d, want rate/10 = 9", s.Classes[1].Burst)
	}
	// Idempotent: a second Normalize and a JSON round trip change nothing.
	clone := s.Clone()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(clone) {
		t.Fatalf("Normalize not idempotent: %+v vs %+v", s, clone)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Set
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s) {
		t.Fatalf("JSON round trip drifted: %+v vs %+v", &back, s)
	}
}

func TestNormalizeRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  Set
	}{
		{"no classes", Set{}},
		{"unnamed", Set{Classes: []Config{{}}}},
		{"duplicate", Set{Classes: []Config{{Name: "a"}, {Name: "a"}}}},
		{"negative weight", Set{Classes: []Config{{Name: "a", Weight: -1}}}},
		{"negative rate", Set{Classes: []Config{{Name: "a", Rate: -1}}}},
		{"negative burst", Set{Classes: []Config{{Name: "a", Burst: -1}}}},
		{"negative knee", Set{Knee: -1, Classes: []Config{{Name: "a"}}}},
		{"negative window", Set{Window: -1, Classes: []Config{{Name: "a"}}}},
	} {
		s := tc.set
		if err := s.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted %+v", tc.name, tc.set)
		}
	}
}

func TestPerShardRate(t *testing.T) {
	for _, tc := range []struct{ rate, shards, want int }{
		{0, 4, 0}, {100, 4, 25}, {101, 4, 26}, {1, 4, 1}, {100, 1, 100},
	} {
		if got := PerShardRate(tc.rate, tc.shards); got != tc.want {
			t.Errorf("PerShardRate(%d, %d) = %d, want %d", tc.rate, tc.shards, got, tc.want)
		}
	}
}

func TestBucketExactRefill(t *testing.T) {
	// 1000 calls/sec, burst 2: starts full (2 calls), refills one call
	// every cyclesPerSec/1000 cycles, exactly.
	b := NewBucket(1000, 2)
	if !b.Take(0) || !b.Take(0) {
		t.Fatal("full bucket refused its burst")
	}
	if b.Take(0) {
		t.Fatal("empty bucket admitted a call")
	}
	perCall := cyclesPerSec / 1000
	if b.Take(perCall - 1) {
		t.Fatal("admitted one cycle before the refill completed")
	}
	if !b.Take(perCall) {
		t.Fatal("refused after a full call's refill")
	}
	// A long idle refills to the burst cap, no further.
	if got := b.Level(1 << 40); got != 2 {
		t.Fatalf("level after long idle = %d, want burst 2", got)
	}
}

func TestBucketUnlimited(t *testing.T) {
	if NewBucket(0, 5) != nil {
		t.Fatal("rate 0 should mean no bucket")
	}
}

func TestShedPolicy(t *testing.T) {
	// Two tenants, weights 3 (victim) and 1 (aggressor), knee 8.
	const knee, totalW = 8, 4
	// Below the knee nobody sheds, whatever the split.
	if Shed(7, 1, 7, totalW, knee) {
		t.Fatal("shed below the knee")
	}
	// Past the knee the aggressor holding the whole backlog sheds...
	if !Shed(8, 1, 8, totalW, knee) {
		t.Fatal("over-share aggressor not shed past the knee")
	}
	// ...while the victim holding nothing keeps being admitted.
	if Shed(0, 3, 8, totalW, knee) {
		t.Fatal("under-share victim shed")
	}
	// Equal demand: the lower weight crosses its share first.
	if !Shed(4, 1, 8, totalW, knee) {
		t.Fatal("weight-1 at half the backlog (share 1/4) not shed")
	}
	if Shed(4, 3, 8, totalW, knee) {
		t.Fatal("weight-3 at half the backlog (share 3/4) shed")
	}
}

func TestDRRWeightedShares(t *testing.T) {
	// Weights 3:1, both backlogged: every 4 serves split 3/1.
	d := NewDRR[int]([]int{3, 1})
	for i := 0; i < 40; i++ {
		d.Enqueue(i%2, i)
	}
	served := [2]int{}
	for i := 0; i < 20; i++ {
		_, class, ok := d.Dequeue()
		if !ok {
			t.Fatalf("queue dry after %d serves", i)
		}
		served[class]++
	}
	if served[0] != 15 || served[1] != 5 {
		t.Fatalf("served = %v over 20 dequeues, want [15 5] (3:1)", served)
	}
}

func TestDRRFIFOWithinClass(t *testing.T) {
	d := NewDRR[int]([]int{1, 1})
	for i := 0; i < 6; i++ {
		d.Enqueue(0, i)
	}
	last := -1
	for {
		v, class, ok := d.Dequeue()
		if !ok {
			break
		}
		if class != 0 {
			t.Fatalf("served class %d, only class 0 has work", class)
		}
		if v <= last {
			t.Fatalf("out of order: %d after %d", v, last)
		}
		last = v
	}
	if last != 5 {
		t.Fatalf("drained to %d, want 5", last)
	}
}

// TestDRRFIFOWhileQueueing: requests filed while others wait keep FIFO
// order within their class, also when a class queue moves its waiting
// requests down to make room, and a drained scheduler serves new
// requests like a fresh one.
func TestDRRFIFOWhileQueueing(t *testing.T) {
	d := NewDRR[int]([]int{2, 1})
	next := [2]int{}
	want := [2]int{}
	serve := func() {
		v, class, ok := d.Dequeue()
		if !ok {
			t.Fatal("idle with requests queued")
		}
		if v != want[class] {
			t.Fatalf("class %d served %d, want %d", class, v, want[class])
		}
		want[class]++
	}
	for round := 0; round < 200; round++ {
		for class := 0; class < 2; class++ {
			for i := 0; i < 2+round%3; i++ {
				d.Enqueue(class, next[class])
				next[class]++
			}
		}
		for i := 0; i < 3+round%2; i++ {
			serve()
		}
	}
	for d.Len() > 0 {
		serve()
	}
	if want != next {
		t.Fatalf("served up to %v, filed %v", want, next)
	}
	d.Enqueue(1, next[1])
	if v, class, ok := d.Dequeue(); !ok || class != 1 || v != next[1] {
		t.Fatalf("after draining: Dequeue = (%d, %d, %v), want (%d, 1, true)", v, class, ok, next[1])
	}
}

func TestDRRIdleClassForfeitsDeficit(t *testing.T) {
	// Class 1 (weight 5) goes idle; when it returns it must not burst
	// through hoarded credit beyond one visit's quantum.
	d := NewDRR[int]([]int{1, 5})
	for i := 0; i < 20; i++ {
		d.Enqueue(0, i)
	}
	for i := 0; i < 10; i++ {
		d.Dequeue()
	}
	for i := 0; i < 20; i++ {
		d.Enqueue(1, 100+i)
	}
	streak, maxStreak := 0, 0
	for {
		_, class, ok := d.Dequeue()
		if !ok {
			break
		}
		if class == 1 {
			streak++
			if streak > maxStreak {
				maxStreak = streak
			}
		} else {
			streak = 0
		}
	}
	if maxStreak > 5 {
		t.Fatalf("class 1 served %d in a row, quantum is 5", maxStreak)
	}
}

func TestDRRConservation(t *testing.T) {
	d := NewDRR[int]([]int{2, 1, 4})
	n := 0
	for i := 0; i < 31; i++ {
		d.Enqueue(i%3, i)
		n++
	}
	got := 0
	for {
		_, _, ok := d.Dequeue()
		if !ok {
			break
		}
		got++
	}
	if got != n || d.Len() != 0 {
		t.Fatalf("dequeued %d of %d (len %d)", got, n, d.Len())
	}
}
