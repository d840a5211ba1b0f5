package fleet

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestStatsDelta pins the per-epoch snapshot arithmetic: cumulative
// counters subtract, point-in-time fields and high-water marks keep
// the current value, and the makespan becomes the max per-shard cycle
// delta — with an elastic-added shard counting its whole clock.
func TestStatsDelta(t *testing.T) {
	before := Stats{
		Shards: 2,
		PerShard: []ShardStats{
			{Shard: 0, Cycles: 1000, Calls: 10, SessionsOpened: 2, IdleCycles: 100},
			{Shard: 1, Cycles: 4000, Calls: 40, SessionsOpened: 3, IdleCycles: 0},
		},
		TotalCalls:      50,
		SessionsOpened:  5,
		MakespanCycles:  4000,
		CacheHits:       7,
		Migrations:      1,
		Rewarms:         2,
		RewarmMaxCycles: 900,
		ShardsAdded:     0,
	}
	after := Stats{
		Shards: 3,
		PerShard: []ShardStats{
			{Shard: 0, Cycles: 3000, Calls: 30, SessionsOpened: 2, IdleCycles: 150, LiveSessions: 4},
			{Shard: 1, Cycles: 4500, Calls: 45, SessionsOpened: 3, IdleCycles: 0},
			// Added mid-interval: no before row, whole clock counts.
			{Shard: 2, Cycles: 2600, Calls: 5, SessionsOpened: 5},
		},
		TotalCalls:      80,
		SessionsOpened:  10,
		MakespanCycles:  4500,
		CacheHits:       9,
		Migrations:      4,
		Rewarms:         2,
		RewarmMaxCycles: 1200,
		ShardsDown:      1,
		ShardsAdded:     1,
		WarmMaxCycles:   600,
	}
	d := after.Delta(before)

	if d.TotalCalls != 30 || d.SessionsOpened != 5 || d.CacheHits != 2 || d.Migrations != 3 {
		t.Fatalf("cumulative deltas wrong: %+v", d)
	}
	if d.Rewarms != 0 || d.ShardsAdded != 1 {
		t.Fatalf("chaos/elastic deltas wrong: rewarms=%d added=%d", d.Rewarms, d.ShardsAdded)
	}
	// Point-in-time and high-water fields keep the current value.
	if d.Shards != 3 || d.ShardsDown != 1 || d.RewarmMaxCycles != 1200 || d.WarmMaxCycles != 600 {
		t.Fatalf("point-in-time fields not preserved: %+v", d)
	}
	// Max per-shard delta: shard 0 moved 2000, shard 1 moved 500, shard
	// 2 contributes its whole 2600-cycle clock.
	if d.MakespanCycles != 2600 {
		t.Fatalf("MakespanCycles = %d, want 2600", d.MakespanCycles)
	}
	if len(d.PerShard) != 3 {
		t.Fatalf("PerShard len = %d, want 3", len(d.PerShard))
	}
	if d.PerShard[0].Cycles != 2000 || d.PerShard[0].Calls != 20 || d.PerShard[0].IdleCycles != 50 {
		t.Fatalf("shard 0 delta wrong: %+v", d.PerShard[0])
	}
	if d.PerShard[0].LiveSessions != 4 {
		t.Fatalf("LiveSessions should stay point-in-time, got %d", d.PerShard[0].LiveSessions)
	}
	if d.PerShard[2].Cycles != 2600 || d.PerShard[2].SessionsOpened != 5 {
		t.Fatalf("added shard must count whole clock: %+v", d.PerShard[2])
	}
	// The receiver is untouched (Delta is by value).
	if after.TotalCalls != 80 || after.PerShard[0].Cycles != 3000 {
		t.Fatalf("Delta mutated its receiver: %+v", after)
	}

	// Every row of the counter table: distinct values per row and shard
	// (shard 2 has no prev row), folded per the row's aggregation by
	// both Delta and merge.
	prev := Stats{PerShard: make([]ShardStats, 2)}
	cur := Stats{PerShard: make([]ShardStats, 3)}
	for i, c := range counters {
		base := uint64(1000 * (i + 1))
		for s := range cur.PerShard {
			if c.shard == nil {
				continue
			}
			if s < len(prev.PerShard) {
				*c.shard(&prev.PerShard[s]) = base + uint64(s)
			}
			*c.shard(&cur.PerShard[s]) = base + uint64(s) + uint64(10*(s+1))
		}
		if c.fleet != nil {
			*c.fleet(&prev), *c.fleet(&cur) = base, base+7
		}
	}
	d = cur.Delta(prev)
	merged := merge(cur.PerShard)
	for i, c := range counters {
		base := uint64(1000 * (i + 1))
		var most, total uint64
		for s := range cur.PerShard {
			if c.shard == nil {
				continue
			}
			v := *c.shard(&cur.PerShard[s])
			total += v
			most = max(most, v)
			want := uint64(10 * (s + 1))
			switch {
			case c.agg == peak:
				want = v
			case s >= len(prev.PerShard):
				want = v // no prev row: the whole counter is new
			}
			if got := *c.shard(&d.PerShard[s]); got != want {
				t.Errorf("row %d (%s) shard %d delta = %d, want %d", i, c.metric, s, got, want)
			}
		}
		if c.fleet == nil {
			continue
		}
		want := map[aggregation]uint64{sum: 7, peak: base + 7, elapsed: base + 2 + 30}[c.agg]
		if got := *c.fleet(&d); got != want {
			t.Errorf("row %d (%s) fleet delta = %d, want %d", i, c.metric, got, want)
		}
		if c.shard == nil {
			continue
		}
		want = total
		if c.agg != sum {
			want = most
		}
		if got := *c.fleet(&merged); got != want {
			t.Errorf("row %d (%s) merged = %d, want %d", i, c.metric, got, want)
		}
	}
}

// TestCounterTableCoversStats: every numeric Stats/ShardStats field is
// declared exactly once in the counter table, or listed here as
// point-in-time (never subtracted, never summed by merge).
func TestCounterTableCoversStats(t *testing.T) {
	pointInTime := map[string]bool{
		"Stats.Shards":            true,
		"Stats.ShardsDown":        true,
		"ShardStats.Shard":        true,
		"ShardStats.LiveSessions": true,
	}
	var st Stats
	var sh ShardStats
	declared := map[*uint64]int{}
	for _, c := range counters {
		if c.shard != nil {
			declared[c.shard(&sh)]++
		}
		if c.fleet != nil {
			declared[c.fleet(&st)]++
		}
	}
	for _, v := range []reflect.Value{reflect.ValueOf(&st).Elem(), reflect.ValueOf(&sh).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanInt() && !f.CanUint() && !f.CanFloat() {
				continue
			}
			name := v.Type().Name() + "." + v.Type().Field(i).Name
			p, _ := f.Addr().Interface().(*uint64)
			switch n := declared[p]; {
			case pointInTime[name]:
				if p != nil && n > 0 {
					t.Errorf("%s is both point-in-time and in the counter table", name)
				}
			case p == nil:
				t.Errorf("%s is a %s: declare it point-in-time or make it a uint64 counter row", name, f.Type())
			case n != 1:
				t.Errorf("%s appears %d times in the counter table, want exactly once", name, n)
			}
		}
	}
}

// TestStatsMarshalJSON pins the snake_case wire shape tools consume.
func TestStatsMarshalJSON(t *testing.T) {
	raw, err := json.Marshal(Stats{
		Shards:         1,
		PerShard:       []ShardStats{{Shard: 0, Cycles: 42, Profile: "fast"}},
		TotalCalls:     7,
		MakespanCycles: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, want := range []string{
		`"shards":1`, `"total_calls":7`, `"makespan_cycles":42`,
		`"per_shard":[`, `"cycles":42`, `"profile":"fast"`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("marshaled Stats missing %s:\n%s", want, s)
		}
	}
}
