package fleet

import (
	"errors"
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// ProvisionFunc registers modules (and any keys) on one shard's fresh
// kernel. It runs once per shard and must be deterministic. The
// shard's backend profile is passed so provisioning can honor its
// module flavor (register a modcrypt-encrypted archive on
// FlavorModcrypt shards, plaintext otherwise); the registered module
// must expose the same function set either way.
type ProvisionFunc func(*kern.Kernel, *core.SMod, backend.Profile) error

// config is the resolved option set Open builds a fleet from. It is
// deliberately unexported: the stable public surface is Open plus the
// With* options, not a field bag strategies get threaded through.
type config struct {
	shards      int
	module      string
	version     int
	credential  string
	clientUID   int
	clientName  string
	provision   ProvisionFunc
	backends    []backend.Assignment
	maxSessions int
	place       placement.Placement
	cacheSize   int
	chaosEng    *chaos.Engine
	auto        *autoscale.Config
	tr          *trace.Recorder
	met         *metrics.Registry
	tenants     *tenant.Set
}

// Option configures Open.
type Option func(*config)

// WithShards sets the number of independent kernels (>= 1). It may be
// omitted when WithBackends pins the fleet size.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithModule names the protected module (and version) every client
// attaches to; the provision function must register it on each shard.
func WithModule(name string, version int) Option {
	return func(c *config) { c.module, c.version = name, version }
}

// WithProvision sets the per-shard provisioning function.
func WithProvision(fn ProvisionFunc) Option { return func(c *config) { c.provision = fn } }

// WithClient sets the kernel credential of the simulated client
// processes (name "" keeps the "fleet-client" default).
func WithClient(uid int, name string) Option {
	return func(c *config) { c.clientUID = uid; c.clientName = name }
}

// WithCredential sets the serialized credential text clients present
// at session start ("" when the module policy admits them directly).
func WithCredential(cred string) Option { return func(c *config) { c.credential = cred } }

// WithBackends assigns a machine-class profile to every shard (see
// internal/backend): each shard's kernel runs the profile's scaled
// cost table, its module flavor selects what the provision function
// installs, and placement weighs shard capacity by the profile cost
// factors. Omitted means a homogeneous fleet of baseline machines.
// When set it must cover shards 0..Shards-1 exactly once; WithShards
// may be omitted to take the assignment's length.
func WithBackends(as []backend.Assignment) Option {
	return func(c *config) { c.backends = as }
}

// WithPlacement installs the routing strategy (see internal/placement).
// Omitted means placement.Sticky — the historical sticky pool with no
// rebalancing. The strategy instance must be fresh (single-use).
func WithPlacement(p placement.Placement) Option {
	return func(c *config) { c.place = p }
}

// WithChaos installs a deterministic fault-injection engine (see
// internal/chaos): each Rebalance barrier — one per RunPlan /
// RunSchedule call, plus explicit Rebalance calls — steps the engine's
// schedule and executes the due faults before the barrier's placement
// rebalance. Like a placement strategy, an engine is single-use: one
// drill, one engine. Omitted means no faults.
func WithChaos(e *chaos.Engine) Option { return func(c *config) { c.chaosEng = e } }

// WithAutoscalerConfig installs the deterministic SLO autoscaler (see
// internal/autoscale): at every rebalance barrier the fleet feeds the
// controller the window's merged p99 latency estimate and the
// controller steers the live shard count between cfg.Min and cfg.Max —
// adding a shard on an SLO breach, draining the priciest one after
// sustained comfort — to hold p99 at or under cfg.SLOMicros (simulated
// microseconds) at minimum fleet cost. Zero policy knobs (scale-down
// fraction, hold hysteresis) take the controller's defaults, and a
// zero-value Profile makes added shards take shard 0's. Resizes land
// at barriers only, so an autoscaled run replays bit for bit.
func WithAutoscalerConfig(cfg autoscale.Config) Option {
	return func(c *config) { c.auto = &cfg }
}

// WithTrace attaches a flight recorder (see internal/trace): every
// call's lifecycle (route → admit → inject → execute → finish), every
// control job (migrations, replica warms, re-warms, drains), and every
// barrier-path decision (chaos faults, autoscaler actions, replica
// promotions) is recorded in simulated cycles, annotated with the
// rebalance-barrier number. Recording reads clocks and counters but
// never advances them, so enabling it does not move a single simulated
// cycle; with no recorder the emission sites cost one nil check and
// zero allocations (both pinned by tests). A recorder may be shared
// across sequential fleets (flight-recorder tail semantics) but never
// across two fleets at once.
func WithTrace(r *trace.Recorder) Option { return func(c *config) { c.tr = r } }

// WithMetrics publishes the fleet's counters into a metrics registry
// (see internal/metrics) with snapshot-at-barrier semantics: at every
// rebalance barrier — and once more at Close — the fleet pushes its
// cumulative Stats, per-shard pool bindings, live-shard gauges, and
// autoscaler observations under the smod_* namespace. Publication
// rides the zero-cycle stats path, so it cannot perturb a
// deterministic run.
func WithMetrics(reg *metrics.Registry) Option { return func(c *config) { c.met = reg } }

// WithTenants enables multi-tenant QoS (see internal/tenant): each
// shard replaces its FIFO admit with deficit-round-robin weighted fair
// queueing across per-tenant queues, admission runs through each
// class's token bucket (fleet-wide rates split evenly over live
// shards), and past the set's queue-depth knee overloaded classes are
// shed with ErrOverload — lowest weight first, by weighted share.
// Requests join the class named by Request.Tenant ("" joins the
// implicit "default" class; declare a class named "default" to govern
// untenanted traffic too). The set is cloned and normalized at Open;
// nil leaves tenancy off and the dispatch path byte-identical to an
// untenanted fleet. Weights, rates, and the knee can be re-applied
// live at a barrier with Fleet.SetTenants.
func WithTenants(set *tenant.Set) Option { return func(c *config) { c.tenants = set } }

// WithResultCache gives every shard a bounded LRU result cache of the
// given capacity (entries) memoizing the module's spec-declared
// idempotent functions. 0 disables caching.
func WithResultCache(entries int) Option { return func(c *config) { c.cacheSize = entries } }

// WithSessionCap caps warm sessions per shard; the least recently used
// idle session is reclaimed when the cap is hit (0 = unlimited). The
// cap is soft: sessions busy in the current batch are never evicted.
func WithSessionCap(n int) Option { return func(c *config) { c.maxSessions = n } }

// resolve validates the option set and fills defaults.
func (c *config) resolve() error {
	if c.shards < 1 && len(c.backends) > 0 {
		c.shards = len(c.backends)
	}
	if c.shards < 1 {
		return fmt.Errorf("fleet: need at least 1 shard, got %d", c.shards)
	}
	if c.module == "" || c.provision == nil {
		return errors.New("fleet: Open needs WithModule and WithProvision")
	}
	if c.clientName == "" {
		c.clientName = "fleet-client"
	}
	if len(c.backends) == 0 {
		c.backends = backend.Uniform(c.shards, backend.Default())
	}
	if len(c.backends) != c.shards {
		return fmt.Errorf("fleet: %d backend assignments for %d shards",
			len(c.backends), c.shards)
	}
	if err := backend.Validate(c.backends); err != nil {
		return err
	}
	if c.place == nil {
		c.place = placement.NewSticky()
	}
	if c.tenants != nil {
		c.tenants = c.tenants.Clone()
		if err := c.tenants.Normalize(); err != nil {
			return err
		}
	}
	if c.auto != nil {
		if c.auto.SLOMicros <= 0 {
			return fmt.Errorf("fleet: autoscaler SLO must be > 0, got %g", c.auto.SLOMicros)
		}
		if c.auto.Profile.Name == "" && c.auto.Profile.Scale == 0 {
			c.auto.Profile = c.backends[0].Profile
		}
	}
	return nil
}
