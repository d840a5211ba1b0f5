package fleet

// Stats aggregates the fleet. Per-shard entries are each in their own
// simulated clock domain; MakespanCycles is the maximum shard clock,
// the fleet-wide simulated elapsed time. The struct marshals directly
// (snake_case JSON), and Delta turns two snapshots into the per-epoch
// view a measured phase reports.
type Stats struct {
	Shards         int          `json:"shards"`
	PerShard       []ShardStats `json:"per_shard,omitempty"`
	TotalCalls     uint64       `json:"total_calls"`
	SessionsOpened uint64       `json:"sessions_opened"`
	Evictions      uint64       `json:"evictions"`
	MakespanCycles uint64       `json:"makespan_cycles"`
	// Placement and cache aggregates: the result-cache counters summed
	// over shards (nonzero whenever WithResultCache is set, under any
	// strategy), Migrations — completed cross-shard session moves (the
	// sum of per-shard MigratedOut) — and ReplicasAdded/ReplicasDropped
	// — replica sessions warmed in / drained by the replicating
	// strategy. The move counters are zero under the default sticky
	// strategy.
	CacheHits       uint64 `json:"cache_hits"`
	CacheMisses     uint64 `json:"cache_misses"`
	CacheEvictions  uint64 `json:"cache_evictions"`
	Migrations      uint64 `json:"migrations"`
	ReplicasAdded   uint64 `json:"replicas_added"`
	ReplicasDropped uint64 `json:"replicas_dropped"`
	// Chaos drill aggregates (zero without WithChaos): shards killed so
	// far, orphaned keys re-warmed after shard deaths (with the single
	// costliest recovery in cycles — the number a drill's re-warm budget
	// gates), stall cycles injected, sessions dropped by drop faults,
	// and warm-ins discarded as corrupt.
	ShardsDown      int    `json:"shards_down"`
	Rewarms         uint64 `json:"rewarms"`
	RewarmMaxCycles uint64 `json:"rewarm_max_cycles"`
	StallCycles     uint64 `json:"stall_cycles"`
	SessionsDropped uint64 `json:"sessions_dropped"`
	CorruptWarms    uint64 `json:"corrupt_warms"`
	// Elastic resize aggregates (zero on a fixed fleet): shards added /
	// drained so far (drained shards are retired on purpose and counted
	// apart from chaos kills in ShardsDown), and the costliest single
	// session warm-in (migration, replica, or re-warm) in cycles — the
	// number an elastic drill's re-warm budget gates.
	ShardsAdded   uint64 `json:"shards_added"`
	ShardsDrained uint64 `json:"shards_drained"`
	WarmMaxCycles uint64 `json:"warm_max_cycles"`
	// Tenants aggregates per-class QoS counters across shards (nil
	// without WithTenants, so existing bench JSON is byte-identical).
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// ShardStats is one shard's merged counters, all in that shard's own
// simulated clock domain.
type ShardStats struct {
	Shard int `json:"shard"`
	// Profile names the shard's backend machine class ("fast", "slow",
	// "crypto", ...), for per-profile aggregation in the bench layer.
	Profile         string `json:"profile,omitempty"`
	Cycles          uint64 `json:"cycles"`
	Ticks           uint64 `json:"ticks"`
	Calls           uint64 `json:"calls"` // completed smod_call dispatches
	SessionsOpened  uint64 `json:"sessions_opened"`
	PolicyChecks    uint64 `json:"policy_checks"`
	ContextSwitches uint64 `json:"context_switches"`
	Syscalls        uint64 `json:"syscalls"`
	LiveSessions    int    `json:"live_sessions"`
	Evictions       uint64 `json:"evictions"`
	// Result-cache counters (zero unless the fleet runs with
	// WithResultCache).
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEvictions uint64 `json:"cache_evictions"`
	// Migration counters: sessions handed off this shard / warmed onto
	// it by the placement strategy.
	MigratedOut uint64 `json:"migrated_out"`
	MigratedIn  uint64 `json:"migrated_in"`
	// Replica counters: hot-key replicas warmed onto this shard /
	// drained from it by the replicating strategy.
	ReplicasIn  uint64 `json:"replicas_in"`
	ReplicasOut uint64 `json:"replicas_out"`
	// IdleCycles counts clock advances over idle arrival gaps (timed
	// schedules only). Cycles - IdleCycles is the shard's busy time,
	// the numerator of per-shard utilization in mixed-fleet sweeps.
	IdleCycles uint64 `json:"idle_cycles"`
	// Chaos drill counters: orphaned keys re-warmed onto this shard
	// after another shard's death (with the costliest single recovery),
	// clock cycles injected by stall faults, sessions dropped by drop
	// faults, and warm-ins discarded as corrupt.
	Rewarms         uint64 `json:"rewarms"`
	RewarmMaxCycles uint64 `json:"rewarm_max_cycles"`
	StallCycles     uint64 `json:"stall_cycles"`
	SessionsDropped uint64 `json:"sessions_dropped"`
	CorruptWarms    uint64 `json:"corrupt_warms"`
	// WarmMaxCycles is the costliest single session warm-in on this
	// shard (migration warm-in, replica warm, or orphan re-warm) — the
	// per-shard number elastic drills gate against the re-warm budget.
	WarmMaxCycles uint64 `json:"warm_max_cycles"`
	// Tenants holds per-QoS-class counters (nil without WithTenants,
	// keeping untenanted snapshots byte-identical).
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one QoS class's counters: calls admitted through the
// class's token bucket into its fair queue, calls refused by the shed
// policy or the bucket, the deepest its queue ever got on any one shard,
// and the warm sessions it currently holds.
type TenantStats struct {
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	QueueMax int    `json:"queue_max"`
	Sessions int    `json:"sessions"`
}

// aggregation says how a counter folds across shards and over time.
type aggregation int

const (
	// sum: cumulative per shard; the fleet value is the sum over shards
	// and Delta subtracts at both levels. Published as a counter.
	sum aggregation = iota
	// elapsed: a per-shard clock; the fleet value is the maximum over
	// shards, which Delta re-derives from the per-shard deltas.
	// Published as a gauge.
	elapsed
	// peak: a high-water mark; the fleet value is the maximum over
	// shards, and Delta keeps the current values, a maximum being
	// un-subtractable. Published as a gauge.
	peak
)

// counter is one row of the counter table: the per-shard field (nil for
// fleet-level counters), the fleet field it folds into (nil for
// per-shard-only counters), how it folds, and the smod_* metric family
// the fleet field is published as.
type counter struct {
	shard  func(*ShardStats) *uint64
	fleet  func(*Stats) *uint64
	agg    aggregation
	metric string
	help   string
}

// counters declares every cumulative and high-water Stats/ShardStats
// field once: merge, Stats.Delta, and the metrics publication all
// iterate it, so a new counter is its struct field plus one row here.
// Fields missing here are point-in-time (Shards, ShardsDown, Shard,
// LiveSessions) or not numeric; a test keeps the two in step.
var counters = []counter{
	{func(s *ShardStats) *uint64 { return &s.Cycles }, func(s *Stats) *uint64 { return &s.MakespanCycles }, elapsed,
		"smod_makespan_cycles", "Maximum per-shard simulated clock — the fleet's elapsed time."},
	{shard: func(s *ShardStats) *uint64 { return &s.Ticks }},
	{func(s *ShardStats) *uint64 { return &s.Calls }, func(s *Stats) *uint64 { return &s.TotalCalls }, sum,
		"smod_calls_total", "Completed smod_call dispatches across the fleet."},
	{func(s *ShardStats) *uint64 { return &s.SessionsOpened }, func(s *Stats) *uint64 { return &s.SessionsOpened }, sum,
		"smod_sessions_opened_total", "Warm client sessions opened."},
	{shard: func(s *ShardStats) *uint64 { return &s.PolicyChecks }},
	{shard: func(s *ShardStats) *uint64 { return &s.ContextSwitches }},
	{shard: func(s *ShardStats) *uint64 { return &s.Syscalls }},
	{func(s *ShardStats) *uint64 { return &s.Evictions }, func(s *Stats) *uint64 { return &s.Evictions }, sum,
		"smod_evictions_total", "Sessions reclaimed by the LRU cap."},
	{func(s *ShardStats) *uint64 { return &s.CacheHits }, func(s *Stats) *uint64 { return &s.CacheHits }, sum,
		"smod_cache_hits_total", "Idempotent calls answered from the result cache."},
	{func(s *ShardStats) *uint64 { return &s.CacheMisses }, func(s *Stats) *uint64 { return &s.CacheMisses }, sum,
		"smod_cache_misses_total", "Result-cache lookups that missed."},
	{func(s *ShardStats) *uint64 { return &s.CacheEvictions }, func(s *Stats) *uint64 { return &s.CacheEvictions }, sum,
		"smod_cache_evictions_total", "Result-cache entries evicted."},
	{func(s *ShardStats) *uint64 { return &s.MigratedOut }, func(s *Stats) *uint64 { return &s.Migrations }, sum,
		"smod_migrations_total", "Completed cross-shard session migrations."},
	{shard: func(s *ShardStats) *uint64 { return &s.MigratedIn }},
	{func(s *ShardStats) *uint64 { return &s.ReplicasIn }, func(s *Stats) *uint64 { return &s.ReplicasAdded }, sum,
		"smod_replicas_added_total", "Hot-key replica sessions warmed in."},
	{func(s *ShardStats) *uint64 { return &s.ReplicasOut }, func(s *Stats) *uint64 { return &s.ReplicasDropped }, sum,
		"smod_replicas_dropped_total", "Hot-key replica sessions drained."},
	{shard: func(s *ShardStats) *uint64 { return &s.IdleCycles }},
	{func(s *ShardStats) *uint64 { return &s.Rewarms }, func(s *Stats) *uint64 { return &s.Rewarms }, sum,
		"smod_rewarms_total", "Orphaned keys re-warmed after shard deaths."},
	{func(s *ShardStats) *uint64 { return &s.RewarmMaxCycles }, func(s *Stats) *uint64 { return &s.RewarmMaxCycles }, peak,
		"smod_rewarm_max_cycles", "Costliest single orphan re-warm, in cycles (the chaos budget gate)."},
	{func(s *ShardStats) *uint64 { return &s.StallCycles }, func(s *Stats) *uint64 { return &s.StallCycles }, sum,
		"smod_stall_cycles_total", "Clock cycles injected by chaos stall faults."},
	{func(s *ShardStats) *uint64 { return &s.SessionsDropped }, func(s *Stats) *uint64 { return &s.SessionsDropped }, sum,
		"smod_sessions_dropped_total", "Live sessions torn down by chaos drop faults."},
	{func(s *ShardStats) *uint64 { return &s.CorruptWarms }, func(s *Stats) *uint64 { return &s.CorruptWarms }, sum,
		"smod_corrupt_warms_total", "Warm-ins discarded as corrupt."},
	{func(s *ShardStats) *uint64 { return &s.WarmMaxCycles }, func(s *Stats) *uint64 { return &s.WarmMaxCycles }, peak,
		"smod_warm_max_cycles", "Costliest single session warm-in, in cycles (the elastic budget gate)."},
	{nil, func(s *Stats) *uint64 { return &s.ShardsAdded }, sum,
		"smod_shards_added_total", "Shards added by elastic resize."},
	{nil, func(s *Stats) *uint64 { return &s.ShardsDrained }, sum,
		"smod_shards_drained_total", "Shards drained and retired on purpose."},
}

// Delta returns the change from a prior snapshot prev to s — the
// per-epoch view a measured phase reports, so callers stop subtracting
// fields by hand. Counters fold per their table row: cumulative ones
// are subtracted (fleet-wide and per-shard), high-water marks keep the
// receiver's current values, and point-in-time fields (Shards,
// ShardsDown, LiveSessions) are left alone. MakespanCycles becomes the
// fleet-wide simulated elapsed time of the interval: the maximum
// per-shard cycle delta, where a shard with no row in prev (added by an
// elastic resize mid-interval) counts its whole clock, provisioning
// included.
func (s Stats) Delta(prev Stats) Stats {
	d := s
	d.PerShard = make([]ShardStats, len(s.PerShard))
	for i, a := range s.PerShard {
		var b ShardStats
		if i < len(prev.PerShard) {
			b = prev.PerShard[i]
		}
		for _, c := range counters {
			if c.shard != nil && c.agg != peak {
				*c.shard(&a) -= *c.shard(&b)
			}
		}
		a.Tenants = deltaTenants(a.Tenants, b.Tenants)
		d.PerShard[i] = a
	}
	for _, c := range counters {
		switch {
		case c.fleet == nil:
		case c.agg == sum:
			*c.fleet(&d) -= *c.fleet(&prev)
		case c.agg == elapsed:
			v := c.fleet(&d)
			*v = 0
			for i := range d.PerShard {
				*v = max(*v, *c.shard(&d.PerShard[i]))
			}
		}
	}
	d.Tenants = deltaTenants(s.Tenants, prev.Tenants)
	return d
}

// deltaTenants subtracts the cumulative per-class counters (Admitted,
// Shed); QueueMax — a high-water mark — and Sessions — point-in-time —
// keep the current values. A fresh map is built so the source snapshot
// is never mutated.
func deltaTenants(cur, prev map[string]TenantStats) map[string]TenantStats {
	if len(cur) == 0 {
		return nil
	}
	out := make(map[string]TenantStats, len(cur))
	for name, a := range cur {
		b := prev[name]
		a.Admitted -= b.Admitted
		a.Shed -= b.Shed
		out[name] = a
	}
	return out
}

// merge folds per-shard snapshots into fleet aggregates.
func merge(per []ShardStats) Stats {
	st := Stats{Shards: len(per), PerShard: per}
	for i := range per {
		for _, c := range counters {
			if c.shard == nil || c.fleet == nil {
				continue
			}
			v, agg := *c.shard(&per[i]), c.fleet(&st)
			if c.agg == sum {
				*agg += v
			} else {
				*agg = max(*agg, v)
			}
		}
		for name, ts := range per[i].Tenants {
			agg := st.Tenants[name]
			agg.Admitted += ts.Admitted
			agg.Shed += ts.Shed
			agg.Sessions += ts.Sessions
			if ts.QueueMax > agg.QueueMax {
				agg.QueueMax = ts.QueueMax
			}
			if st.Tenants == nil {
				st.Tenants = map[string]TenantStats{}
			}
			st.Tenants[name] = agg
		}
	}
	return st
}
