package fleet

import (
	"sort"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// This file is the fleet's observability seam: the metric families the
// fleet publishes (WithMetrics) and the barrier-path publication that
// feeds them. The companion trace emissions live inline at the sites
// they observe (route, shard.go, chaos.go, elastic.go), each behind a
// nil-ring check so the disabled path stays allocation-free.
//
// Publication follows snapshot-at-barrier semantics: every rebalance
// barrier ends with one publishMetrics call, which reads the fleet's
// coherent Stats snapshot (zero-simulated-cycle control jobs) and
// stores each value into its pre-resolved series. Nothing here touches
// a simulated clock, so a metered run replays bit for bit.

// fleetMetrics pre-resolves every series handle once at Open so the
// per-barrier publication is map-lookup-free.
type fleetMetrics struct {
	reg *metrics.Registry

	// counters holds one series per row of the counter table that
	// names a metric (nil for per-shard-only rows).
	counters []*metrics.Series

	shardsLive, shardsDown, liveSessions, costUnits, barriers *metrics.Series

	autoAdds, autoDrains, autoP99, autoWindowCalls *metrics.Series
	faults                                         *metrics.Series
	traceEvents, traceDropped                      *metrics.Series

	// Per-shard families, labeled {shard="N"}.
	bindings, shardCycles, shardCalls *metrics.Family

	// Per-tenant QoS families, labeled {tenant="name"} (series appear
	// only on tenanted fleets).
	tenantAdmitted, tenantShed, tenantQueueMax, tenantSessions *metrics.Family
}

func newFleetMetrics(reg *metrics.Registry) *fleetMetrics {
	series := make([]*metrics.Series, len(counters))
	for i, c := range counters {
		switch {
		case c.metric == "":
		case c.agg == sum:
			series[i] = reg.Counter(c.metric, c.help)
		default:
			series[i] = reg.Gauge(c.metric, c.help)
		}
	}
	return &fleetMetrics{
		reg:      reg,
		counters: series,

		shardsLive:   reg.Gauge("smod_shards_live", "Shards currently serving."),
		shardsDown:   reg.Gauge("smod_shards_down", "Shards killed by chaos faults."),
		liveSessions: reg.Gauge("smod_sessions_live", "Warm client sessions currently held."),
		costUnits:    reg.Gauge("smod_cost_units", "Sum of UnitPrice over live shards — the fleet's running cost."),
		barriers:     reg.Counter("smod_barriers_total", "Rebalance barriers executed."),

		autoAdds:        reg.Counter("smod_autoscale_adds_total", "Shards the autoscaler added on SLO breaches."),
		autoDrains:      reg.Counter("smod_autoscale_drains_total", "Shards the autoscaler drained after sustained comfort."),
		autoP99:         reg.Gauge("smod_autoscale_window_p99_us", "The last barrier window's merged p99 estimate, simulated µs."),
		autoWindowCalls: reg.Gauge("smod_autoscale_window_calls", "Calls covered by the last barrier window."),
		faults:          reg.Counter("smod_chaos_faults_total", "Chaos faults fired."),
		traceEvents:     reg.Counter("smod_trace_events_total", "Flight-recorder events emitted."),
		traceDropped:    reg.Counter("smod_trace_events_dropped_total", "Flight-recorder events overwritten by ring wraparound."),

		bindings:    reg.Family("smod_pool_bindings", "Placement bindings per shard (replicas each count once).", metrics.Gauge),
		shardCycles: reg.Family("smod_shard_cycles", "Per-shard simulated clock, in cycles.", metrics.Gauge),
		shardCalls:  reg.Family("smod_shard_calls_total", "Per-shard completed smod_call dispatches.", metrics.Counter),

		tenantAdmitted: reg.Family("smod_tenant_admitted_total", "Calls admitted into a tenant's fair queue.", metrics.Counter),
		tenantShed:     reg.Family("smod_tenant_shed_total", "Calls refused by a tenant's bucket or the shed knee.", metrics.Counter),
		tenantQueueMax: reg.Family("smod_tenant_queue_max", "Deepest per-shard tenant queue observed.", metrics.Gauge),
		tenantSessions: reg.Family("smod_tenant_sessions", "Warm sessions currently held per tenant.", metrics.Gauge),
	}
}

// shardLabel renders the {shard="N"} label of the per-shard families.
func shardLabel(id int) metrics.Label {
	return metrics.Label{Name: "shard", Value: strconv.Itoa(id)}
}

// publish stores one barrier snapshot. Cumulative Stats fields land in
// counters (monotone because the source is), point-in-time fields in
// gauges.
func (m *fleetMetrics) publish(st Stats, load []int, live int, cost float64, barriers uint64, tr *trace.Recorder) {
	for i, c := range counters {
		if m.counters[i] != nil {
			m.counters[i].Set(float64(*c.fleet(&st)))
		}
	}
	m.shardsLive.Set(float64(live))
	m.shardsDown.Set(float64(st.ShardsDown))
	m.costUnits.Set(cost)
	m.barriers.Set(float64(barriers))

	liveSessions := 0
	for _, ps := range st.PerShard {
		liveSessions += ps.LiveSessions
		m.shardCycles.With(shardLabel(ps.Shard)).Set(float64(ps.Cycles))
		m.shardCalls.With(shardLabel(ps.Shard)).Set(float64(ps.Calls))
	}
	m.liveSessions.Set(float64(liveSessions))
	for sid, n := range load {
		m.bindings.With(shardLabel(sid)).Set(float64(n))
	}
	if len(st.Tenants) > 0 {
		names := make([]string, 0, len(st.Tenants))
		for name := range st.Tenants {
			names = append(names, name)
		}
		sort.Strings(names) // deterministic series creation order
		for _, name := range names {
			ts := st.Tenants[name]
			lbl := metrics.Label{Name: "tenant", Value: name}
			m.tenantAdmitted.With(lbl).Set(float64(ts.Admitted))
			m.tenantShed.With(lbl).Set(float64(ts.Shed))
			m.tenantQueueMax.With(lbl).Set(float64(ts.QueueMax))
			m.tenantSessions.With(lbl).Set(float64(ts.Sessions))
		}
	}
	if tr != nil {
		emitted, droppedEvents := tr.Counts()
		m.traceEvents.Set(float64(emitted))
		m.traceDropped.Set(float64(droppedEvents))
	}
}

// publishMetrics pushes one barrier snapshot into the registry. Runs
// at the end of every Rebalance and once more at Close (with the final
// stats). The Stats snapshot rides control jobs, which cost
// zero simulated cycles — so metering a run cannot change it.
func (f *Fleet) publishMetrics(st Stats) {
	if f.met == nil {
		return
	}
	f.met.publish(st, f.placement().Load(), f.LiveShards(), f.LiveCostUnits(),
		f.barriers.Load(), f.tr)
}
