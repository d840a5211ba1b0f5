package measure

// The latency-vs-offered-load curve: the fleet's open-loop saturation
// characterization. For each offered rate a fresh fleet serves a timed
// arrival schedule (Poisson or fixed-interval) in simulated clock
// time; per-call latencies come back on each response, and the row
// reports exact p50/p95/p99 quantiles plus achieved throughput over
// the fleet makespan. Below capacity achieved tracks offered and
// latency is flat service time; past the knee the queue grows without
// bound for the duration of the schedule, achieved caps at capacity,
// and the latency quantiles blow up — the standard open-loop picture
// of a queueing system approaching saturation.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/spec"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// LoadCurveConfig describes one load-curve sweep: the fleet every
// point opens, plus the workload the points offer it.
type LoadCurveConfig struct {
	// Fleet describes the measured fleet: its size (shards, backend mix
	// or autoscale band), placement and replica cap, result cache and
	// re-warm budget. Fleet.Seed seeds the placement strategy and the
	// arrival schedule alike, so a fixed seed makes the whole curve
	// bit-for-bit reproducible. Tenancy is part of the workload here
	// (see Tenants), so Fleet.Tenants must be nil. Held by value: copy a
	// config and edit its Fleet to derive a paired curve.
	Fleet spec.FleetSpec
	// RefShards is the fixed fleet size an autoscaled curve is compared
	// against: the size its auto rate grid is calibrated at and the size
	// its BENCH record names. Valid only when Fleet.Autoscale is set (the
	// spec's sizing modes are mutually exclusive).
	RefShards int
	// Clients is the number of warm sticky keys arrivals are spread
	// over (round-robin by seeded rng).
	Clients int
	// Calls is the number of arrivals measured per offered-load point.
	Calls int
	// Rates is the offered-load sweep, in calls per simulated second
	// across the whole fleet.
	Rates []float64
	// Kind selects the arrival process (Poisson or Uniform).
	Kind ArrivalKind

	// ZipfS, when >= 1.01, draws each arrival's key from a Zipf(s)
	// popularity distribution over the Clients keys instead of
	// uniformly: rank-1 keys dominate, the skewed-traffic regime where
	// a sticky pool pins hot clients to one shard. 0 keeps the
	// historical uniform draw.
	ZipfS float64
	// ArgsCardinality bounds the distinct argument values drawn (0 =
	// every call unique). Small values make the workload idempotent in
	// practice — repeated (func, args) sites — so the loadmgr result
	// cache has something to hit.
	ArgsCardinality int
	// Epochs splits each point's schedule into this many back-to-back
	// RunSchedule barriers (min 1). Each barrier is a rebalance
	// opportunity, so migration (and replica resizing) needs Epochs >= 2
	// to act within a point.
	Epochs int
	// Chaos, when non-empty, runs every point of the sweep as a fault
	// drill: the schedule (chaos.Parse syntax, e.g. "kill:0@5") is
	// compiled into a fresh engine per point, so each offered rate
	// replays the identical fault sequence at the identical barriers
	// (warm-up is barrier 1; each epoch adds one). The availability
	// story: the curve's knee under a kill-one-shard drill, next to the
	// healthy curve's knee. Fleet.RewarmBudgetCycles declares the
	// re-warm budget the drill is gated on (0 means
	// chaos.DefaultRewarmBudgetCycles); the BENCH record carries it for
	// cmd/benchdiff, and autoscaled curves reuse it for their resize
	// warm-ins.
	Chaos string

	// WarmupEpochs excludes the first n epochs of every point from the
	// latency quantiles (the calls still run and still count toward
	// achieved throughput and the makespan): for elastic points this is
	// the adaptation window in which the autoscaler is still sizing the
	// fleet for the point's offered rate.
	WarmupEpochs int

	// Tenants, when non-empty, runs every point multi-tenant: the QoS
	// classes (weight, admission rate, burst) are installed on the
	// measured fleet at a barrier after warm-up, total arrivals split
	// into one independent stream per class (see TenantLoad), and the
	// point reports per-class latency quantiles and shed counts next to
	// the merged row. The recorded OfferedPerSec stays the nominal grid
	// rate — what the fleet would see with every Boost at 1 — so curve
	// pairs that differ only in one class's Boost (the aggressor/victim
	// isolation pair) stay comparable point by point. nil keeps the
	// untenanted baseline bit for bit.
	Tenants []TenantLoad
	// TenantKnee and TenantWindow configure the QoS set's shed knee and
	// per-shard inflight window (0 = the tenant package defaults).
	TenantKnee   int
	TenantWindow int

	// Trace, when non-nil, attaches the flight recorder to every fleet
	// the sweep opens (fleet.WithTrace): spans and control events from
	// all points accumulate in its rings, oldest overwritten first, so
	// what survives is the tail of the run. Metrics, when non-nil,
	// likewise attaches the registry (fleet.WithMetrics); each point's
	// fleet republishes into the same families at its barriers.
	// Neither moves a single simulated cycle (see internal/trace), so
	// an instrumented sweep reproduces the bare BENCH numbers bit for
	// bit. Not part of the workload shape: never recorded in BENCH
	// documents.
	Trace   *trace.Recorder
	Metrics *metrics.Registry
}

// Shards returns the fleet size the curve is recorded and compared at:
// the spec's fixed size, or RefShards when the fleet autoscales.
func (cfg LoadCurveConfig) Shards() int {
	if cfg.Fleet.Autoscale != nil {
		return cfg.RefShards
	}
	return cfg.Fleet.MaxShards()
}

// curveFleet validates and normalizes a copy of the curve's fleet spec.
func curveFleet(cfg LoadCurveConfig) (spec.FleetSpec, error) {
	fs := cfg.Fleet
	if fs.Tenants != nil {
		return fs, fmt.Errorf("measure: load curves declare tenancy in Tenants, not Fleet.Tenants")
	}
	if cfg.RefShards != 0 && fs.Autoscale == nil {
		return fs, fmt.Errorf("measure: RefShards applies to autoscaled fleets only")
	}
	if err := fs.Validate(); err != nil {
		return fs, fmt.Errorf("measure: %w", err)
	}
	return fs, nil
}

// TenantLoad declares one QoS class of a multi-tenant sweep: its
// tenant configuration plus its slice of the offered load. The class
// owns Clients sticky keys (contiguous, in declaration order) and
// offers Boost times its proportional share of the nominal rate — so
// Boost 1 everywhere reproduces the untenanted arrival mix, Boost > 1
// is an aggressor driving past its share, and Boost 0 silences the
// class entirely (the solo-baseline trick: declare the aggressor, so
// weights and key ranges match the paired curve, but send nothing).
type TenantLoad struct {
	Name    string  `json:"name"`
	Weight  int     `json:"weight,omitempty"`
	Rate    int     `json:"rate,omitempty"`
	Burst   int     `json:"burst,omitempty"`
	Clients int     `json:"clients"`
	Boost   float64 `json:"boost"`
}

// TenantPoint is one class's slice of a load point.
type TenantPoint struct {
	Weight    int     `json:"weight"`
	Boost     float64 `json:"boost"`
	Offered   float64 `json:"offered_cps"`
	Calls     int     `json:"calls"`
	Shed      int     `json:"shed"`
	P50Micros float64 `json:"p50_us"`
	P95Micros float64 `json:"p95_us"`
	P99Micros float64 `json:"p99_us"`
}

// LoadPoint is one row of the latency-vs-offered-load table.
type LoadPoint struct {
	OfferedPerSec  float64      `json:"offered_cps"`
	AchievedPerSec float64      `json:"achieved_cps"`
	Calls          int          `json:"calls"`
	P50Micros      float64      `json:"p50_us"`
	P95Micros      float64      `json:"p95_us"`
	P99Micros      float64      `json:"p99_us"`
	MeanMicros     float64      `json:"mean_us"`
	MaxMicros      float64      `json:"max_us"`
	MakespanMicros float64      `json:"makespan_us"`
	Saturated      bool         `json:"saturated"`
	Hist           []HistBucket `json:"hist"`
	// Placement activity during the point (zero under sticky).
	Migrations  uint64 `json:"migrations,omitempty"`
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
	// Replication activity (replicating placement only): replica
	// sessions warmed in / drained during the point, plus the
	// per-replica hit distribution of the hottest replicated key —
	// the view that shows one dominant key actually being served from
	// several shards at once.
	ReplicasAdded   uint64       `json:"replicas_added,omitempty"`
	ReplicasDropped uint64       `json:"replicas_dropped,omitempty"`
	ReplicaKey      string       `json:"replica_key,omitempty"`
	ReplicaHits     []ReplicaHit `json:"replica_hits,omitempty"`
	// Profiles breaks the point down by backend machine class
	// (mixed-fleet sweeps only): calls served and busy-time utilization
	// per profile, the view that shows hot traffic landing on fast
	// shards while slow shards hold the cold tail.
	Profiles []ProfileLoad `json:"profiles,omitempty"`
	// Chaos-drill outcome (chaos sweeps only): shards dead at the end of
	// the point, orphaned sessions re-warmed after shard kills, and the
	// most cycles any single re-warm took — the number the re-warm
	// budget gate checks.
	ShardsDown      int    `json:"shards_down,omitempty"`
	Rewarms         uint64 `json:"rewarms,omitempty"`
	RewarmMaxCycles uint64 `json:"rewarm_max_cycles,omitempty"`
	// Elastic-fleet outcome (SLO-autoscaled sweeps only): mean live
	// shards and mean fleet cost (sum of backend unit prices) sampled at
	// every epoch barrier, the lifecycle counts, and the slowest single
	// warm-in any resize paid — the number the warm budget gate checks.
	AvgShards     float64 `json:"avg_shards,omitempty"`
	CostUnits     float64 `json:"cost_units,omitempty"`
	ShardsAdded   int     `json:"shards_added,omitempty"`
	ShardsDrained int     `json:"shards_drained,omitempty"`
	WarmMaxCycles uint64  `json:"warm_max_cycles,omitempty"`
	// Multi-tenant outcome (tenanted sweeps only): each class's served
	// calls, sheds, and latency quantiles.
	Tenants map[string]TenantPoint `json:"tenants,omitempty"`
}

// ReplicaHit is one shard's share of the hottest replicated key's
// idempotent traffic.
type ReplicaHit struct {
	Shard int    `json:"shard"`
	Calls uint64 `json:"calls"`
}

// ProfileLoad is one machine class's share of a load point.
type ProfileLoad struct {
	Name   string `json:"name"`
	Shards int    `json:"shards"`
	Calls  uint64 `json:"calls"`
	// Utilization is the mean busy fraction of the profile's shards
	// over the point's makespan: busy = cycle delta minus idle arrival
	// gaps the shard clock jumped over.
	Utilization float64 `json:"utilization"`
}

// profileBreakdown folds a fleet.Stats.Delta's per-shard rows into
// per-profile rows, in shard order of first appearance.
func profileBreakdown(d fleet.Stats, makespan uint64) []ProfileLoad {
	if makespan == 0 {
		return nil
	}
	idx := map[string]int{}
	var out []ProfileLoad
	busy := map[string]uint64{}
	for _, a := range d.PerShard {
		name := a.Profile
		j, ok := idx[name]
		if !ok {
			j = len(out)
			idx[name] = j
			out = append(out, ProfileLoad{Name: name})
		}
		out[j].Shards++
		out[j].Calls += a.Calls
		cyc, idle := a.Cycles, a.IdleCycles
		if idle > cyc {
			idle = cyc
		}
		busy[name] += cyc - idle
	}
	for j := range out {
		out[j].Utilization = float64(busy[out[j].Name]) /
			(float64(out[j].Shards) * float64(makespan))
	}
	return out
}

// SatAchievedFraction marks a point saturated when achieved throughput
// falls below this fraction of offered (the queue could not drain at
// the offered rate). Slightly below 1 because a finite schedule's
// makespan includes draining the final backlog, which biases achieved
// below offered even at sub-capacity loads.
const SatAchievedFraction = 0.9

// RunFleetLoadCurve sweeps the offered-load rates and returns one
// LoadPoint per rate. Every point runs on a fresh fleet with the same
// seed, so points differ only in offered load.
func RunFleetLoadCurve(cfg LoadCurveConfig) ([]LoadPoint, error) {
	fs, err := curveFleet(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Fleet = fs
	if cfg.Clients < 1 || cfg.Calls < 1 {
		return nil, fmt.Errorf("measure: load curve needs clients, calls >= 1")
	}
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("measure: load curve needs at least one offered rate")
	}
	if cfg.Chaos != "" {
		sched, err := chaos.Parse(cfg.Chaos)
		if err != nil {
			return nil, fmt.Errorf("measure: %w", err)
		}
		if err := sched.Validate(fs.MaxShards()); err != nil {
			return nil, fmt.Errorf("measure: %w", err)
		}
	}
	if len(cfg.Tenants) > 0 {
		if cfg.ZipfS > 0 {
			return nil, fmt.Errorf("measure: tenanted sweeps draw keys uniformly per class (ZipfS must be 0)")
		}
		total, active := 0, 0
		seen := map[string]bool{}
		for _, tl := range cfg.Tenants {
			if tl.Name == "" {
				return nil, fmt.Errorf("measure: tenant class with no name")
			}
			if seen[tl.Name] {
				return nil, fmt.Errorf("measure: duplicate tenant class %q", tl.Name)
			}
			seen[tl.Name] = true
			if tl.Clients < 1 {
				return nil, fmt.Errorf("measure: tenant %q needs clients >= 1", tl.Name)
			}
			if tl.Boost < 0 {
				return nil, fmt.Errorf("measure: tenant %q boost %g is negative", tl.Name, tl.Boost)
			}
			if tl.Boost > 0 {
				active++
			}
			total += tl.Clients
		}
		if active == 0 {
			return nil, fmt.Errorf("measure: every tenant class is silent (boost 0)")
		}
		// The classes own the key space: Clients is derived, not declared.
		cfg.Clients = total
	}
	points := make([]LoadPoint, 0, len(cfg.Rates))
	for _, rate := range cfg.Rates {
		p, err := runLoadPoint(cfg, rate)
		if err != nil {
			return nil, fmt.Errorf("measure: load point %.0f/s: %w", rate, err)
		}
		points = append(points, p)
	}
	return points, nil
}

// loadPointSchedule builds one point's timed requests: arrival instants
// from the configured process, keys drawn uniformly or Zipf-skewed, and
// argument values optionally folded into a small cardinality. Pure
// function of the config and rate, so every run of a point is identical.
func loadPointSchedule(cfg LoadCurveConfig, rate float64, incr uint32) ([]fleet.TimedRequest, error) {
	arrivals, err := Arrivals(cfg.Kind, cfg.Fleet.Seed, rate, cfg.Calls)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Fleet.Seed + 1))
	var zipf *rand.Zipf
	if cfg.ZipfS > 0 {
		if cfg.ZipfS < 1.01 {
			return nil, fmt.Errorf("zipf exponent %.3f too flat (need >= 1.01)", cfg.ZipfS)
		}
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Clients-1))
	}
	treqs := make([]fleet.TimedRequest, cfg.Calls)
	for i := range treqs {
		var c int
		if zipf != nil {
			c = int(zipf.Uint64())
		} else {
			c = rng.Intn(cfg.Clients)
		}
		arg := uint32(i)
		if cfg.ArgsCardinality > 0 {
			arg = uint32(rng.Intn(cfg.ArgsCardinality))
		}
		treqs[i] = fleet.TimedRequest{
			At: arrivals[i],
			Req: fleet.Request{
				Key:    benchKey(c),
				FuncID: incr,
				Args:   []uint32{arg},
			},
		}
	}
	return treqs, nil
}

// tenantSchedule builds one multi-tenant point's timed requests: one
// independent arrival stream per class (its own seed and contiguous
// key range, at Boost times its proportional share of the nominal
// rate), merged by arrival instant. A class's stream depends only on
// its own declaration and the shared grid rate — changing another
// class's Boost cannot move a single one of its arrivals, which is
// what lets the isolation gate compare a victim's quantiles across the
// solo/aggressor curve pair point by point.
func tenantSchedule(cfg LoadCurveConfig, rate float64, incr uint32) ([]fleet.TimedRequest, error) {
	total := 0
	for _, tl := range cfg.Tenants {
		total += tl.Clients
	}
	var all []fleet.TimedRequest
	base := 0
	for ti, tl := range cfg.Tenants {
		share := float64(tl.Clients) * tl.Boost / float64(total)
		calls := int(math.Round(float64(cfg.Calls) * share))
		if calls > 0 {
			seed := cfg.Fleet.Seed + int64(ti+1)*7919
			arrivals, err := Arrivals(cfg.Kind, seed, rate*share, calls)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed + 1))
			for i, at := range arrivals {
				arg := uint32(i)
				if cfg.ArgsCardinality > 0 {
					arg = uint32(rng.Intn(cfg.ArgsCardinality))
				}
				all = append(all, fleet.TimedRequest{
					At: at,
					Req: fleet.Request{
						Key:    benchKey(base + rng.Intn(tl.Clients)),
						FuncID: incr,
						Args:   []uint32{arg},
						Tenant: tl.Name,
					},
				})
			}
		}
		base += tl.Clients
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all, nil
}

// runLoadPoint measures one offered rate on a fresh fleet. With Epochs
// > 1 the schedule runs as that many back-to-back RunSchedule barriers
// (each re-based to its first arrival): between epochs the placement
// strategy may migrate hot keys or resize replica sets, which is the
// only way rebalancing can act within a single measured point.
func runLoadPoint(cfg LoadCurveConfig, rate float64) (point LoadPoint, err error) {
	opts, place, err := FleetOptions(&cfg.Fleet)
	if err != nil {
		return LoadPoint{}, err
	}
	if cfg.Chaos != "" {
		// A fresh engine per point: each offered rate replays the full
		// fault schedule from barrier 1 (engines are single-use).
		sched, perr := chaos.Parse(cfg.Chaos)
		if perr != nil {
			return LoadPoint{}, perr
		}
		opts = append(opts, fleet.WithChaos(chaos.NewEngine(sched)))
	}
	opts = append(opts, fleet.WithTrace(cfg.Trace), fleet.WithMetrics(cfg.Metrics))
	elastic := cfg.Fleet.Autoscale != nil
	f, err := fleet.Open(opts...)
	if err != nil {
		return LoadPoint{}, err
	}
	// Shard shutdown errors surface only from Close; don't mask them.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			point, err = LoadPoint{}, cerr
		}
	}()
	incr, ok := f.FuncID("incr")
	if !ok {
		return LoadPoint{}, fmt.Errorf("libc lacks incr")
	}
	// Session setup is the open-loop churn story, measured separately
	// by RunFleetOpenLoop; here sessions are pre-warmed so the curve
	// holds only smod_call traffic.
	if err := warmFleet(f, incr, cfg.Clients); err != nil {
		return LoadPoint{}, err
	}
	tenanted := len(cfg.Tenants) > 0
	var treqs []fleet.TimedRequest
	if tenanted {
		set := &tenant.Set{Knee: cfg.TenantKnee, Window: cfg.TenantWindow}
		for _, tl := range cfg.Tenants {
			set.Classes = append(set.Classes, tenant.Config{
				Name: tl.Name, Weight: tl.Weight, Rate: tl.Rate, Burst: tl.Burst})
		}
		// Install at a barrier after warm-up, so session warming never
		// competes with the classes' admission buckets.
		if err := f.SetTenants(set); err != nil {
			return LoadPoint{}, err
		}
		if _, err := f.Rebalance(); err != nil {
			return LoadPoint{}, err
		}
		treqs, err = tenantSchedule(cfg, rate, incr)
	} else {
		treqs, err = loadPointSchedule(cfg, rate, incr)
	}
	if err != nil {
		return LoadPoint{}, err
	}
	before := f.Stats()

	epochs := cfg.Epochs
	if epochs < 1 {
		epochs = 1
	}
	if epochs > len(treqs) {
		epochs = len(treqs)
	}
	warmup := cfg.WarmupEpochs
	if warmup >= epochs {
		warmup = epochs - 1
	}
	var rec LatencyRecorder
	trecs := map[string]*LatencyRecorder{}
	sheds := map[string]int{}
	shedTotal := 0
	var shardsSum, costSum float64
	samples := 0
	per := (len(treqs) + epochs - 1) / epochs
	for start := 0; start < len(treqs); start += per {
		end := start + per
		if end > len(treqs) {
			end = len(treqs)
		}
		chunk := make([]fleet.TimedRequest, end-start)
		base := treqs[start].At
		for i, tr := range treqs[start:end] {
			tr.At -= base
			chunk[i] = tr
		}
		resps, err := f.RunSchedule(chunk)
		if err != nil {
			return LoadPoint{}, err
		}
		measured := start/per >= warmup
		for i, r := range resps {
			if r.Err != nil {
				if tenanted && errors.Is(r.Err, fleet.ErrOverload) {
					// Shedding is the mechanism under test, not a failure:
					// count it against the call's class and move on.
					sheds[chunk[i].Req.Tenant]++
					shedTotal++
					continue
				}
				return LoadPoint{}, fmt.Errorf("call %d: %w", start+i, r.Err)
			}
			if r.Errno != 0 {
				return LoadPoint{}, fmt.Errorf("call %d: errno %d", start+i, r.Errno)
			}
			if measured {
				rec.Record(r.LatencyCycles)
				if tenanted {
					tn := chunk[i].Req.Tenant
					tr := trecs[tn]
					if tr == nil {
						tr = &LatencyRecorder{}
						trecs[tn] = tr
					}
					tr.Record(r.LatencyCycles)
				}
			}
		}
		if elastic {
			shardsSum += float64(f.LiveShards())
			costSum += f.LiveCostUnits()
			samples++
		}
	}
	// The measured phase is the snapshot delta: cumulative counters
	// subtracted, makespan the max per-shard cycle delta, high-water
	// marks (RewarmMaxCycles, WarmMaxCycles) carried through.
	d := f.Stats().Delta(before)

	makespan := d.MakespanCycles
	served, offered := cfg.Calls, rate
	if tenanted {
		// Tenanted schedules round per-class call counts, and shed calls
		// never reach a shard: achieved reflects what was actually served.
		// The saturation test likewise compares against the point's true
		// arrival rate (the boost-weighted share sum), while the recorded
		// OfferedPerSec stays the nominal grid rate for pair comparability.
		served = len(treqs) - shedTotal
		total, active := 0, 0.0
		for _, tl := range cfg.Tenants {
			total += tl.Clients
			active += float64(tl.Clients) * tl.Boost
		}
		offered = rate * active / float64(total)
	}
	achieved := clock.PerSec(served, makespan)
	var profiles []ProfileLoad
	if cfg.Fleet.Mix != "" {
		profiles = profileBreakdown(d, makespan)
	}
	point = LoadPoint{
		OfferedPerSec:   rate,
		AchievedPerSec:  achieved,
		Calls:           rec.Count(),
		P50Micros:       rec.QuantileMicros(0.50),
		P95Micros:       rec.QuantileMicros(0.95),
		P99Micros:       rec.QuantileMicros(0.99),
		MeanMicros:      rec.MeanMicros(),
		MaxMicros:       rec.MaxMicros(),
		MakespanMicros:  clock.Micros(makespan),
		Saturated:       achieved < SatAchievedFraction*offered,
		Hist:            rec.Histogram(),
		Migrations:      d.Migrations,
		CacheHits:       d.CacheHits,
		CacheMisses:     d.CacheMisses,
		ReplicasAdded:   d.ReplicasAdded,
		ReplicasDropped: d.ReplicasDropped,
		Profiles:        profiles,
		ShardsDown:      d.ShardsDown,
		Rewarms:         d.Rewarms,
		RewarmMaxCycles: d.RewarmMaxCycles,
	}
	if elastic && samples > 0 {
		point.AvgShards = shardsSum / float64(samples)
		point.CostUnits = costSum / float64(samples)
		point.ShardsAdded = int(d.ShardsAdded)
		point.ShardsDrained = int(d.ShardsDrained)
		point.WarmMaxCycles = d.WarmMaxCycles
	}
	if tenanted {
		point.Tenants = make(map[string]TenantPoint, len(cfg.Tenants))
		total := 0
		for _, tl := range cfg.Tenants {
			total += tl.Clients
		}
		for _, tl := range cfg.Tenants {
			w := tl.Weight
			if w < 1 {
				w = 1
			}
			tr := trecs[tl.Name]
			if tr == nil {
				tr = &LatencyRecorder{}
			}
			point.Tenants[tl.Name] = TenantPoint{
				Weight:    w,
				Boost:     tl.Boost,
				Offered:   rate * float64(tl.Clients) * tl.Boost / float64(total),
				Calls:     tr.Count(),
				Shed:      sheds[tl.Name],
				P50Micros: tr.QuantileMicros(0.50),
				P95Micros: tr.QuantileMicros(0.95),
				P99Micros: tr.QuantileMicros(0.99),
			}
		}
	}
	if rep, ok := place.(*placement.Replicated); ok {
		point.ReplicaKey, point.ReplicaHits = hottestReplica(rep)
	}
	return point, nil
}

// hottestReplica picks the replicated key that served the most
// idempotent calls and returns its per-shard hit distribution.
func hottestReplica(rep *placement.Replicated) (string, []ReplicaHit) {
	var bestKey string
	var bestTotal uint64
	var bestRow []placement.ReplicaHit
	for key, row := range rep.HitDistribution() {
		var total uint64
		for _, h := range row {
			total += h.Calls
		}
		if total > bestTotal || (total == bestTotal && (bestKey == "" || key < bestKey)) {
			bestKey, bestTotal, bestRow = key, total, row
		}
	}
	if bestKey == "" {
		return "", nil
	}
	hits := make([]ReplicaHit, len(bestRow))
	for i, h := range bestRow {
		hits[i] = ReplicaHit{Shard: h.Shard, Calls: h.Calls}
	}
	return bestKey, hits
}

// KneeIndex returns the index of the first saturated point — the
// saturation knee of the curve — or -1 when the sweep never saturates.
func KneeIndex(points []LoadPoint) int {
	for i, p := range points {
		if p.Saturated {
			return i
		}
	}
	return -1
}

// LoadCurveTable renders the latency-vs-offered-load table; the knee
// row (first saturated point) is marked with '*'.
func LoadCurveTable(points []LoadPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-1s %12s %12s %7s %10s %10s %10s %10s %12s\n",
		"", "offered/s", "achieved/s", "calls", "p50(us)", "p95(us)", "p99(us)", "mean(us)", "makespan(us)")
	knee := KneeIndex(points)
	for i, p := range points {
		mark := " "
		if i == knee {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-1s %12.0f %12.0f %7d %10.1f %10.1f %10.1f %10.1f %12.1f\n",
			mark, p.OfferedPerSec, p.AchievedPerSec, p.Calls,
			p.P50Micros, p.P95Micros, p.P99Micros, p.MeanMicros, p.MakespanMicros)
	}
	return b.String()
}

// BenchMachine pins the simulated clock so numbers stay comparable.
type BenchMachine struct {
	CyclesPerMicrosecond int `json:"cycles_per_us"`
	TicksPerSecond       int `json:"ticks_per_sec"`
}

// BenchLoadCurve is one load-curve section of the BENCH document.
type BenchLoadCurve struct {
	// Name labels the curve inside a multi-curve document ("uniform",
	// "skew-rebalance", "mix-costaware", "mix-heatonly", ...); the gate
	// in cmd/benchdiff matches curves across documents by it.
	Name string `json:"name,omitempty"`
	// Mix is the backend mix the fleet ran ("fast=2,slow=2"); "" means
	// the homogeneous baseline fleet.
	Mix string `json:"mix,omitempty"`
	// HeatOnly records that migration ignored backend cost weights
	// (the A/B baseline of the cost-aware story).
	HeatOnly      bool    `json:"heat_only,omitempty"`
	Shards        int     `json:"shards"`
	Clients       int     `json:"clients"`
	CallsPerPoint int     `json:"calls_per_point"`
	Process       string  `json:"process"`
	Seed          int64   `json:"seed"`
	ZipfS         float64 `json:"zipf_s,omitempty"`
	ArgsCard      int     `json:"args_cardinality,omitempty"`
	Epochs        int     `json:"epochs,omitempty"`
	// Rebalance/CacheSize/Replicas record the placement configuration
	// the curve ran under, so baselines only compare like with like.
	Rebalance bool `json:"rebalance,omitempty"`
	CacheSize int  `json:"cache_size,omitempty"`
	Replicas  int  `json:"replicas,omitempty"`
	// Chaos records the fault drill every point of the curve replayed
	// (chaos.Parse syntax; "" = healthy run), and RewarmBudgetCycles the
	// declared per-re-warm cycle budget cmd/benchdiff gates on.
	Chaos              string `json:"chaos,omitempty"`
	RewarmBudgetCycles uint64 `json:"rewarm_budget_cycles,omitempty"`
	// SLOMicros/AutoMin/AutoMax record that the curve ran on an elastic
	// SLO-autoscaled fleet (SLOMicros > 0), and WarmupEpochs how many
	// leading epochs per point were excluded from the latency quantiles.
	SLOMicros    float64 `json:"slo_us,omitempty"`
	AutoMin      int     `json:"auto_min,omitempty"`
	AutoMax      int     `json:"auto_max,omitempty"`
	WarmupEpochs int     `json:"warmup_epochs,omitempty"`
	// Tenants records the QoS classes and per-class load split the curve
	// ran under (multi-tenant curves only), TenantKnee the shed knee —
	// the configuration the isolation gate in cmd/benchdiff matches
	// curve pairs by.
	Tenants        []TenantLoad `json:"tenants,omitempty"`
	TenantKnee     int          `json:"tenant_knee,omitempty"`
	TenantWindow   int          `json:"tenant_window,omitempty"`
	Points         []LoadPoint  `json:"points"`
	KneeOfferedCPS float64      `json:"knee_offered_cps"` // 0 = never saturated
	KneeIndex      int          `json:"knee_index"`       // -1 = never saturated
}

// BenchFleet is the machine-readable BENCH_fleet.json document the CI
// bench job records per commit: named load curves (one for a single
// -loadcurve run, the gate suite's eleven) and/or the closed/open
// throughput scaling rows, all in simulated time. Sections that were
// not run are omitted, so consumers can distinguish "not measured"
// from a degenerate measurement.
type BenchFleet struct {
	Schema     string            `json:"schema"`
	Machine    BenchMachine      `json:"machine"`
	Curves     []*BenchLoadCurve `json:"curves,omitempty"`
	Throughput []ThroughputStats `json:"throughput,omitempty"`
}

// NamedCurve pairs one measured curve with its configuration, for
// multi-curve BENCH documents.
type NamedCurve struct {
	Name   string
	Config LoadCurveConfig
	Points []LoadPoint
}

// buildCurve assembles one named curve section, recording the fleet
// from its validated spec.
func buildCurve(name string, cfg LoadCurveConfig, points []LoadPoint) *BenchLoadCurve {
	// Points exist only for a config RunFleetLoadCurve accepted, so the
	// spec validates here too; the record reads its normalized form.
	fs, _ := curveFleet(cfg)
	lc := &BenchLoadCurve{
		Name:          name,
		Mix:           fs.Mix,
		HeatOnly:      fs.Placement == spec.PlacementHeat,
		Shards:        cfg.Shards(),
		Clients:       cfg.Clients,
		CallsPerPoint: cfg.Calls,
		Process:       cfg.Kind.String(),
		Seed:          fs.Seed,
		ZipfS:         cfg.ZipfS,
		ArgsCard:      cfg.ArgsCardinality,
		Epochs:        cfg.Epochs,
		Rebalance:     fs.Placement == spec.PlacementHeat || fs.Placement == spec.PlacementCostAware,
		CacheSize:     fs.ResultCache,
		Replicas:      fs.Replicas,
		Chaos:         cfg.Chaos,
		WarmupEpochs:  cfg.WarmupEpochs,
		Tenants:       cfg.Tenants,
		TenantKnee:    cfg.TenantKnee,
		TenantWindow:  cfg.TenantWindow,
		Points:        points,
		KneeIndex:     KneeIndex(points),
	}
	if a := fs.Autoscale; a != nil {
		lc.SLOMicros, lc.AutoMin, lc.AutoMax = a.SLOMicros, a.Min, a.Max
	}
	if cfg.Chaos != "" || fs.Autoscale != nil {
		lc.RewarmBudgetCycles = fs.RewarmBudgetCycles
		if lc.RewarmBudgetCycles == 0 {
			lc.RewarmBudgetCycles = chaos.DefaultRewarmBudgetCycles
		}
	}
	if lc.KneeIndex >= 0 {
		lc.KneeOfferedCPS = points[lc.KneeIndex].OfferedPerSec
	}
	return lc
}

// NewBenchFleetCurves assembles a BENCH document from named curves (a
// curve without points is left out) and throughput rows; either may be
// nil.
func NewBenchFleetCurves(curves []NamedCurve, rows []ThroughputStats) *BenchFleet {
	doc := &BenchFleet{
		Schema: "smod-bench-fleet/v1",
		Machine: BenchMachine{
			CyclesPerMicrosecond: clock.CyclesPerMicrosecond,
			TicksPerSecond:       clock.HzTicksPerSecond,
		},
		Throughput: rows,
	}
	for _, c := range curves {
		if len(c.Points) == 0 {
			continue
		}
		doc.Curves = append(doc.Curves, buildCurve(c.Name, c.Config, c.Points))
	}
	return doc
}

// MarshalIndent renders the document as indented JSON.
func (d *BenchFleet) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}
