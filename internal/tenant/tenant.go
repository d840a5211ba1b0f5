// Package tenant is the fleet's multi-tenant QoS core: tenant
// configuration (weight, admission rate, burst), a token-bucket
// admission limiter advanced in simulated cycles, a deficit-round-robin
// (DRR) weighted fair queueing scheduler, and the overload shed policy.
//
// Everything here is pure deterministic arithmetic on simulated state —
// no host time, no floats on the admission path — so a fleet replay
// with tenancy enabled is bit-for-bit reproducible, exactly like every
// other subsystem layered on the simulated clock. The fleet threads
// these pieces through each shard's dispatch loop: arriving requests
// are admitted through their tenant's token bucket, queued per tenant,
// served in DRR order so weights translate into throughput shares, and
// shed past the configured queue-depth knee (lowest-weight tenants
// first, by the weighted-share rule below).
package tenant

import (
	"fmt"
	"sort"

	"repro/internal/clock"
)

// cyclesPerSec converts admission rates (calls per simulated second)
// into the bucket's scaled token ledger: one call's worth of tokens is
// cyclesPerSec ledger units, so "level += elapsed_cycles * rate" is
// exact integer math with no rounding drift between replays.
const cyclesPerSec = uint64(clock.CyclesPerSecond)

// Defaults applied by Set.Normalize.
const (
	// DefaultWeight is the DRR weight of a class that declares none,
	// and of the implicit class that serves untenanted requests.
	DefaultWeight = 1
	// DefaultKnee is the per-shard queued-request depth past which the
	// shed policy engages.
	DefaultKnee = 256
	// DefaultWindow is the per-shard cap on injected-but-unfinished
	// calls when tenancy is enabled — the backpressure that makes the
	// per-tenant queues real queues instead of a pass-through relabel.
	DefaultWindow = 8
	// DefaultName is the implicit class untenanted requests join.
	// Declaring a tenant with this name configures that class (its
	// weight, rate, and burst then govern untenanted traffic too).
	DefaultName = "default"
)

// Config declares one tenant class.
type Config struct {
	// Name identifies the tenant; requests carry it verbatim.
	Name string `json:"name"`
	// Weight is the DRR share: a weight-3 tenant is served three
	// requests for every one of a weight-1 tenant whenever both have
	// work queued. 0 means DefaultWeight.
	Weight int `json:"weight,omitempty"`
	// Rate is the fleet-wide admission limit in calls per simulated
	// second (split evenly across live shards); 0 = unlimited.
	Rate int `json:"rate,omitempty"`
	// Burst is the token-bucket depth in calls; 0 with a positive Rate
	// defaults to one tenth of a second of rate (minimum 1).
	Burst int `json:"burst,omitempty"`
}

// Set is a complete tenancy configuration: the classes plus the shared
// shed knee. The zero value is invalid; build one and call Normalize.
type Set struct {
	// Knee is the per-shard total queued-request depth at which the
	// shed policy engages; 0 means DefaultKnee.
	Knee int `json:"knee,omitempty"`
	// Window caps each shard's injected-but-unfinished calls; 0 means
	// DefaultWindow.
	Window int `json:"window,omitempty"`
	// Classes lists the tenants, sorted by name after Normalize.
	Classes []Config `json:"classes"`
}

// Normalize validates the set and rewrites it into canonical form:
// classes sorted by name, defaults made explicit. Idempotent, so a
// normalized set round-trips through JSON unchanged.
func (s *Set) Normalize() error {
	if s == nil {
		return nil
	}
	if s.Knee < 0 {
		return fmt.Errorf("tenant: knee %d is negative", s.Knee)
	}
	if s.Knee == 0 {
		s.Knee = DefaultKnee
	}
	if s.Window < 0 {
		return fmt.Errorf("tenant: window %d is negative", s.Window)
	}
	if s.Window == 0 {
		s.Window = DefaultWindow
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("tenant: set declares no classes")
	}
	seen := map[string]bool{}
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.Name == "" {
			return fmt.Errorf("tenant: class %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("tenant: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if c.Weight < 0 {
			return fmt.Errorf("tenant: class %q: weight %d is negative", c.Name, c.Weight)
		}
		if c.Weight == 0 {
			c.Weight = DefaultWeight
		}
		if c.Rate < 0 {
			return fmt.Errorf("tenant: class %q: rate %d is negative", c.Name, c.Rate)
		}
		if c.Burst < 0 {
			return fmt.Errorf("tenant: class %q: burst %d is negative", c.Name, c.Burst)
		}
		if c.Rate > 0 && c.Burst == 0 {
			c.Burst = c.Rate / 10
			if c.Burst < 1 {
				c.Burst = 1
			}
		}
		if c.Rate == 0 {
			c.Burst = 0
		}
	}
	sort.Slice(s.Classes, func(i, j int) bool { return s.Classes[i].Name < s.Classes[j].Name })
	return nil
}

// Index returns the position of the named class (-1 when absent).
func (s *Set) Index(name string) int {
	if s == nil {
		return -1
	}
	for i := range s.Classes {
		if s.Classes[i].Name == name {
			return i
		}
	}
	return -1
}

// Equal reports whether two sets describe the same tenancy (both
// normalized; nil equals nil only).
func (s *Set) Equal(o *Set) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Knee != o.Knee || s.Window != o.Window || len(s.Classes) != len(o.Classes) {
		return false
	}
	for i := range s.Classes {
		if s.Classes[i] != o.Classes[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy (nil in, nil out).
func (s *Set) Clone() *Set {
	if s == nil {
		return nil
	}
	out := &Set{Knee: s.Knee, Window: s.Window, Classes: append([]Config(nil), s.Classes...)}
	return out
}

// PerShardRate splits a fleet-wide admission rate across live shards,
// rounding up so a small positive rate never starves to zero.
func PerShardRate(rate, shards int) int {
	if rate <= 0 || shards <= 0 {
		return rate
	}
	return (rate + shards - 1) / shards
}

// Bucket is a deterministic token bucket on the simulated cycle clock.
// The ledger holds tokens scaled by cyclesPerSec (one admitted call
// costs cyclesPerSec units), so refill is the exact integer product
// elapsed_cycles x rate — no floats, no rounding drift, bit-for-bit
// identical across replays. The bucket starts full.
type Bucket struct {
	rate uint64 // tokens (calls) per simulated second
	cap  uint64 // ledger cap: burst * cyclesPerSec
	lvl  uint64 // current ledger
	last uint64 // cycle stamp of the last advance
}

// NewBucket builds a bucket admitting rate calls/sec with the given
// burst depth in calls. A non-positive rate means unlimited: nil is
// returned and the caller skips the bucket entirely.
func NewBucket(rate, burst int) *Bucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	cap := uint64(burst) * cyclesPerSec
	return &Bucket{rate: uint64(rate), cap: cap, lvl: cap}
}

// advance refills the ledger for the cycles elapsed since the last
// advance, saturating at the burst cap.
func (b *Bucket) advance(now uint64) {
	if now <= b.last {
		return
	}
	delta := (now - b.last) * b.rate
	b.last = now
	if delta >= b.cap-b.lvl {
		b.lvl = b.cap
		return
	}
	b.lvl += delta
}

// Take admits one call at simulated cycle now, spending one call's
// tokens; false means the tenant is over its admission rate.
func (b *Bucket) Take(now uint64) bool {
	b.advance(now)
	if b.lvl < cyclesPerSec {
		return false
	}
	b.lvl -= cyclesPerSec
	return true
}

// Level returns the current ledger in whole calls, for tests.
func (b *Bucket) Level(now uint64) int {
	b.advance(now)
	return int(b.lvl / cyclesPerSec)
}

// Shed is the overload policy: past the knee, a tenant is shed once its
// own queue holds at least its weighted share of the total backlog.
// With equal demand the smallest weight crosses its share first, so
// lowest-weight tenants shed first; a tenant under its share keeps
// being admitted however deep the aggressors drive the queue, which is
// exactly the isolation the bench gate measures. classQueued counts the
// tenant's queued requests before the arriving one.
func Shed(classQueued, weight, totalQueued, totalWeight, knee int) bool {
	if totalQueued < knee || totalWeight <= 0 {
		return false
	}
	return classQueued*totalWeight >= weight*totalQueued
}

// DRR is a deficit-round-robin scheduler over per-class FIFO queues
// of T: the classic Shreedhar/Varghese weighted fair queueing algorithm
// with unit cost per request, so each class is served `weight` requests
// per visit while backlogged. Pull-based: Enqueue files work, Dequeue
// yields the next request in fair order. Purely deterministic — serving
// order is a function of the enqueue sequence alone. Requests are held
// by value, and a class queue reuses its array once it drains, so a
// steady stream of requests allocates nothing.
type DRR[T any] struct {
	quanta  []int
	deficit []int
	queues  []fifo[T]
	queued  int
	cur     int
	visited bool // cur's deficit already credited this visit
}

// fifo is one class's queue: q[head:] waits, oldest first.
type fifo[T any] struct {
	q    []T
	head int
}

// push queues v behind the waiting requests. Once the served front of
// the queue fills its array, the waiting requests move down first, so
// a queue that never drains keeps a bounded array.
func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, v)
}

// pop takes the oldest waiting request.
func (f *fifo[T]) pop() T {
	var zero T
	v := f.q[f.head]
	f.q[f.head] = zero
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return v
}

// len returns how many requests wait.
func (f *fifo[T]) len() int { return len(f.q) - f.head }

// NewDRR builds a scheduler over len(weights) classes. Non-positive
// weights are lifted to DefaultWeight so every class makes progress.
func NewDRR[T any](weights []int) *DRR[T] {
	q := make([]int, len(weights))
	for i, w := range weights {
		if w < 1 {
			w = DefaultWeight
		}
		q[i] = w
	}
	return &DRR[T]{
		quanta:  q,
		deficit: make([]int, len(weights)),
		queues:  make([]fifo[T], len(weights)),
	}
}

// Enqueue files one request for class.
func (d *DRR[T]) Enqueue(class int, v T) {
	d.queues[class].push(v)
	d.queued++
}

// Dequeue yields the next request and its class in DRR order (false
// when idle).
func (d *DRR[T]) Dequeue() (T, int, bool) {
	if d.queued == 0 {
		var zero T
		return zero, 0, false
	}
	for {
		class := d.cur
		q := &d.queues[class]
		if q.len() == 0 {
			// An empty class forfeits its deficit (the DRR rule that
			// stops idle classes hoarding credit).
			d.deficit[class] = 0
			d.turn()
			continue
		}
		if !d.visited {
			d.deficit[class] += d.quanta[class]
			d.visited = true
		}
		if d.deficit[class] < 1 {
			d.turn()
			continue
		}
		d.deficit[class]--
		v := q.pop()
		d.queued--
		if q.len() == 0 {
			d.deficit[class] = 0
			d.turn()
		}
		return v, class, true
	}
}

// turn passes the visit to the next class.
func (d *DRR[T]) turn() {
	d.cur = (d.cur + 1) % len(d.queues)
	d.visited = false
}

// Len returns the total queued requests across classes.
func (d *DRR[T]) Len() int { return d.queued }

// ClassLen returns one class's queued requests.
func (d *DRR[T]) ClassLen(class int) int { return d.queues[class].len() }
