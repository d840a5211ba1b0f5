package measure

// Fleet throughput workloads: where the Figure 8 harness measures the
// latency of one client calling one kernel, these measure aggregate
// smod_call throughput when sessions are sharded across a fleet of
// independent simulated kernels. Each shard is its own machine with
// its own cycle clock, so the fleet's simulated elapsed time for a
// workload is the maximum per-shard busy time (the makespan), and
// aggregate throughput is total calls over that makespan — the scaling
// curve BENCH output reports alongside the paper's latencies.

import (
	"fmt"
	"strings"

	"repro/internal/backend"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/kern"
	"repro/internal/placement"
	"repro/internal/spec"
)

// ThroughputStats is one row of the fleet scaling curve.
type ThroughputStats struct {
	// Name labels the workload ("closed-loop", "open-loop").
	Name string
	// Shards, Clients and TotalCalls describe the run.
	Shards     int
	Clients    int
	TotalCalls int
	// MakespanMicros is the fleet-wide simulated elapsed time: the
	// maximum of the per-shard clocks over the measured phase.
	MakespanMicros float64
	// CallsPerSec is TotalCalls over the makespan, in simulated time.
	CallsPerSec float64
	// MicrosPerCall is the per-call latency implied by one shard's
	// serial execution (mean over shards), for comparison with Figure 8.
	MicrosPerCall float64
	// Sessions counts sessions opened during the measured phase
	// (open-loop churn pays this; closed-loop warm caches do not).
	Sessions uint64
	// Evictions counts LRU warm-session reclaims during the measured
	// phase (nonzero only when the open-loop cap is engaged).
	Evictions uint64
	// PerShardCycles are the measured-phase cycle deltas per shard.
	PerShardCycles []uint64
}

// benchProvision registers the SecModule libc under the bench policy
// on one shard, honoring the shard's backend-profile flavor (modcrypt
// shards register an encrypted archive). incr is declared idempotent
// (it is x+1), so result caches may memoize it and the replicating
// placement may fan it out.
func benchProvision(k *kern.Kernel, sm *core.SMod, p backend.Profile) error {
	lib, err := core.LibCArchive()
	if err != nil {
		return err
	}
	lib, err = backend.ProvisionArchive(sm.ModKeys, lib, p, "bench-fleet-key",
		[]byte("bench fleet key"))
	if err != nil {
		return err
	}
	_, err = sm.Register(&core.ModuleSpec{
		Name: "libc", Version: 1, Owner: "owner", Lib: lib,
		PolicySrc:       []string{benchPolicy},
		IdempotentFuncs: []string{"incr"},
	})
	return err
}

// FleetOptions maps a validated fleet spec onto the options that open
// the fleet it describes: its size, backends, placement, caches,
// autoscaler and tenancy, provisioned with the bench module for the
// bench licensee. It is the one mapping from a spec to a fleet, shared
// by every load-curve point, smodfleetd and the reconcile tests. The
// placement strategy it builds (fresh, single-use) is returned too, so
// a caller can read it after a run.
func FleetOptions(fs *spec.FleetSpec) ([]fleet.Option, placement.Placement, error) {
	asg, err := fs.Assignments()
	if err != nil {
		return nil, nil, err
	}
	shards := len(asg)
	if fs.Autoscale != nil {
		// An autoscaled fleet opens at its floor and lets the autoscaler
		// earn every extra shard at the barriers.
		shards = fs.Autoscale.Min
	}
	place := fs.NewPlacement()
	opts := []fleet.Option{
		fleet.WithShards(shards),
		fleet.WithBackends(asg),
		fleet.WithModule("libc", 1),
		fleet.WithClient(1, "bench"),
		fleet.WithSessionCap(fs.SessionCap),
		fleet.WithProvision(benchProvision),
		fleet.WithPlacement(place),
		fleet.WithResultCache(fs.ResultCache),
		fleet.WithTenants(fs.Tenants),
	}
	if ac := fs.AutoscaleConfig(); ac != nil {
		opts = append(opts, fleet.WithAutoscalerConfig(*ac))
	}
	return opts, place, nil
}

// openBenchFleet opens a homogeneous sticky bench fleet of the given
// size and per-shard warm-session cap.
func openBenchFleet(shards, maxSessions int) (*fleet.Fleet, error) {
	opts, _, err := FleetOptions(&spec.FleetSpec{Shards: shards, SessionCap: maxSessions})
	if err != nil {
		return nil, err
	}
	return fleet.Open(opts...)
}

// benchKey names the c-th warm sticky client key.
func benchKey(c int) string { return fmt.Sprintf("c%04d", c) }

// warmFleet opens one session per client key (paying find + policy +
// fork once) so a measured phase holds only smod_call traffic.
func warmFleet(f *fleet.Fleet, incr uint32, clients int) error {
	warm := make([]fleet.Request, clients)
	for c := 0; c < clients; c++ {
		warm[c] = fleet.Request{Key: benchKey(c), FuncID: incr, Args: []uint32{0}}
	}
	if err := checkResponses(f.RunPlan(warm)); err != nil {
		return fmt.Errorf("measure: warm: %w", err)
	}
	return nil
}

// throughputRow derives a ThroughputStats from before/after snapshots
// via fleet.Stats.Delta: the measured phase is the delta, its makespan
// the maximum per-shard cycle delta.
func throughputRow(name string, shards, clients, calls int, before, after fleet.Stats) ThroughputStats {
	d := after.Delta(before)
	row := ThroughputStats{
		Name: name, Shards: shards, Clients: clients, TotalCalls: calls,
		Sessions:  d.SessionsOpened,
		Evictions: d.Evictions,
	}
	var sum uint64
	for _, ps := range d.PerShard {
		row.PerShardCycles = append(row.PerShardCycles, ps.Cycles)
		sum += ps.Cycles
	}
	row.MakespanMicros = clock.Micros(d.MakespanCycles)
	row.CallsPerSec = clock.PerSec(calls, d.MakespanCycles)
	if calls > 0 {
		row.MicrosPerCall = clock.Micros(sum) / float64(calls)
	}
	return row
}

// RunFleetClosedLoop measures warm steady-state throughput: `clients`
// sticky client keys, each issuing callsPerClient incr calls in closed
// loop (next call only after the previous returned). Sessions are
// pre-warmed so the measured phase contains only smod_call traffic.
func RunFleetClosedLoop(shards, clients, callsPerClient int) (row ThroughputStats, err error) {
	f, err := openBenchFleet(shards, 0)
	if err != nil {
		return ThroughputStats{}, err
	}
	// Shard shutdown errors surface only from Close; don't mask them.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			row, err = ThroughputStats{}, cerr
		}
	}()
	incr, ok := f.FuncID("incr")
	if !ok {
		return ThroughputStats{}, fmt.Errorf("measure: libc lacks incr")
	}
	if err := warmFleet(f, incr, clients); err != nil {
		return ThroughputStats{}, err
	}
	before := f.Stats()

	plan := make([]fleet.Request, 0, clients*callsPerClient)
	for c := 0; c < clients; c++ {
		for i := 0; i < callsPerClient; i++ {
			plan = append(plan, fleet.Request{Key: benchKey(c), FuncID: incr, Args: []uint32{uint32(i)}})
		}
	}
	if err := checkResponses(f.RunPlan(plan)); err != nil {
		return ThroughputStats{}, fmt.Errorf("measure: closed loop: %w", err)
	}
	after := f.Stats()
	return throughputRow("closed-loop", shards, clients, len(plan), before, after), nil
}

// RunFleetOpenLoop measures session-churn throughput: every call
// arrives under a fresh client key, so each pays find/policy/fork
// session setup, with per-shard warm-session capacity maxSessions
// (LRU-reclaimed, IPAM style). Arrivals are submitted in waves of
// shards*maxSessions fresh keys — a shard batch never evicts sessions
// busy in that batch, so one mega-batch would leave the cap inert;
// wave submission models arrivals over time and makes each wave's
// sessions idle (and LRU-reclaimable) by the next. This is the cold
// open-loop bound; the gap to the closed-loop row is the value of
// session reuse.
func RunFleetOpenLoop(shards, totalCalls, maxSessions int) (row ThroughputStats, err error) {
	f, err := openBenchFleet(shards, maxSessions)
	if err != nil {
		return ThroughputStats{}, err
	}
	// Shard shutdown errors surface only from Close; don't mask them.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			row, err = ThroughputStats{}, cerr
		}
	}()
	incr, ok := f.FuncID("incr")
	if !ok {
		return ThroughputStats{}, fmt.Errorf("measure: libc lacks incr")
	}
	before := f.Stats()
	plan := make([]fleet.Request, totalCalls)
	for i := range plan {
		plan[i] = fleet.Request{Key: fmt.Sprintf("o%05d", i), FuncID: incr, Args: []uint32{uint32(i)}}
	}
	wave := shards * maxSessions
	if maxSessions <= 0 {
		wave = len(plan) // unlimited sessions: no reclaim, one wave
	}
	for start := 0; start < len(plan); start += wave {
		end := start + wave
		if end > len(plan) {
			end = len(plan)
		}
		if err := checkResponses(f.RunPlan(plan[start:end])); err != nil {
			return ThroughputStats{}, fmt.Errorf("measure: open loop: %w", err)
		}
	}
	after := f.Stats()
	return throughputRow("open-loop", shards, totalCalls, totalCalls, before, after), nil
}

// checkResponses fails on the first errored response.
func checkResponses(resps []fleet.Response, err error) error {
	if err != nil {
		return err
	}
	for i, r := range resps {
		if r.Err != nil {
			return fmt.Errorf("request %d: %w", i, r.Err)
		}
		if r.Errno != 0 {
			return fmt.Errorf("request %d: errno %d", i, r.Errno)
		}
	}
	return nil
}

// FleetScalingTable renders throughput rows with speedup relative to
// the first row of each workload name.
func FleetScalingTable(rows []ThroughputStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %7s %8s %8s %14s %14s %12s %9s\n",
		"workload", "shards", "clients", "calls", "makespan(us)", "calls/sec", "us/call", "speedup")
	base := map[string]float64{}
	for _, r := range rows {
		if _, ok := base[r.Name]; !ok {
			base[r.Name] = r.CallsPerSec
		}
		speedup := 0.0
		if base[r.Name] > 0 {
			speedup = r.CallsPerSec / base[r.Name]
		}
		fmt.Fprintf(&b, "%-12s %7d %8d %8d %14.1f %14.0f %12.3f %8.2fx\n",
			r.Name, r.Shards, r.Clients, r.TotalCalls,
			r.MakespanMicros, r.CallsPerSec, r.MicrosPerCall, speedup)
	}
	return b.String()
}
