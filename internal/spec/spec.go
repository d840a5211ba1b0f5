// Package spec defines the versioned declarative fleet specification —
// the k8s-style "desired state" document a reconcile loop
// (internal/reconcile) drives a live fleet toward. A FleetSpec names
// what the fleet should look like (fixed shard count or autoscale
// band, backend mix, placement strategy, replica cap, cache and
// session limits) without saying how to get there; the Diff planner
// turns the gap between a live shard inventory and a spec into an
// ordered action list the reconcile loop applies through the fleet's
// barrier-point primitives (AddShard / DrainShard / SwapPlacement /
// SetAutoscaler). The same document describes the fleet smodfleetd
// serves and the fleet every load-curve point measures
// (internal/measure).
//
// Parsing is strict: unknown fields, unknown schema versions, and
// every inconsistent combination are rejected up front, so a spec that
// parses is a spec the reconcile loop can always act on. Marshal is
// canonical — Parse(Marshal(s)) reproduces Marshal(s) byte for byte —
// which makes specs diffable and content-addressable.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/autoscale"
	"repro/internal/backend"
	"repro/internal/loadmgr"
	"repro/internal/placement"
	"repro/internal/tenant"
)

// SchemaV1 is the only schema this package accepts. Future revisions
// bump the suffix; Parse rejects anything else so an old binary never
// half-understands a newer spec.
const SchemaV1 = "smod-fleet-spec/v1"

// Placement strategy names accepted in FleetSpec.Placement.
const (
	PlacementSticky     = "sticky"
	PlacementHeat       = "heat"
	PlacementCostAware  = "costaware"
	PlacementReplicated = "replicated"
)

// DefaultMaxActionsPerBarrier bounds how many shard-lifecycle actions
// a reconcile step applies per barrier when the spec does not say.
const DefaultMaxActionsPerBarrier = 2

// AutoscaleSpec declares an SLO-driven shard band instead of a fixed
// size: the fleet opens at Min shards and the autoscaler steers the
// live count inside [Min, Max] to hold the p99 target.
type AutoscaleSpec struct {
	// Min and Max bound the live shard count (1 <= Min <= Max).
	Min int `json:"min"`
	Max int `json:"max"`
	// SLOMicros is the p99 latency target in simulated microseconds.
	SLOMicros float64 `json:"slo_us"`
	// Profile is the catalog name of shards the autoscaler adds
	// ("" = the fast baseline).
	Profile string `json:"profile,omitempty"`
	// DownFraction and HoldWindows tune scale-down hysteresis; zero
	// values take the autoscale package defaults.
	DownFraction float64 `json:"down_fraction,omitempty"`
	HoldWindows  int     `json:"hold_windows,omitempty"`
}

// FleetSpec is one versioned desired-state document.
type FleetSpec struct {
	// Schema must be SchemaV1.
	Schema string `json:"schema"`

	// Sizing: exactly one of (Shards, Mix, Autoscale) declares the
	// fleet's size. Shards is a homogeneous fleet of the fast baseline;
	// Mix is a backend mix string ("fast=2,slow=2") sized by its terms;
	// Autoscale is an SLO band.
	Shards    int            `json:"shards,omitempty"`
	Mix       string         `json:"mix,omitempty"`
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`

	// Placement names the routing strategy: "sticky" (default),
	// "heat", "costaware", or "replicated".
	Placement string `json:"placement,omitempty"`
	// Replicas caps hot-key replica fan-out. Under "replicated" the
	// strategy only replicates, and 0 tracks the fleet size. Under
	// "heat" or "costaware" a cap > 0 replicates idempotent hot keys
	// and keeps migrating the rest; 0 migrates only. Sticky placement
	// takes no cap.
	Replicas int `json:"replicas,omitempty"`
	// Seed seeds the placement strategy's deterministic tie-breaking.
	Seed int64 `json:"seed,omitempty"`

	// ResultCache is the per-shard idempotent result cache capacity in
	// entries (0 = no cache); SessionCap bounds warm sessions per shard
	// (0 = unlimited). Both are fixed at fleet open: the reconcile loop
	// reports a drift here as requiring a restart instead of acting.
	ResultCache int `json:"result_cache,omitempty"`
	SessionCap  int `json:"session_cap,omitempty"`

	// Tenants declares the multi-tenant QoS configuration (weights,
	// admission rates, shed knee); nil runs the fleet untenanted. The
	// block is normalized in place by Validate (classes sorted,
	// defaults explicit), and the reconcile loop re-applies weight and
	// rate edits to a live fleet at the next barrier.
	Tenants *tenant.Set `json:"tenants,omitempty"`

	// RewarmBudgetCycles is the declared per-session re-warm budget in
	// simulated cycles a resize or drain must stay within (0 = the
	// drill default, 250k). The reconcile status reports it so drains
	// are judged against the spec, not a hard-coded constant.
	RewarmBudgetCycles uint64 `json:"rewarm_budget_cycles,omitempty"`

	// MaxActionsPerBarrier bounds shard adds+drains applied per
	// reconcile step (0 = DefaultMaxActionsPerBarrier), keeping
	// convergence incremental so one spec edit cannot stall the fleet
	// behind a single giant barrier.
	MaxActionsPerBarrier int `json:"max_actions_per_barrier,omitempty"`
}

// Parse decodes, validates, and normalizes one spec document. It is
// strict: unknown fields, trailing garbage, an unknown schema version,
// or any inconsistent field combination is an error. The returned spec
// is normalized (defaults filled, mix canonicalized), so
// Marshal(Parse(b)) is a fixed point.
func Parse(b []byte) (*FleetSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var fs FleetSpec
	if err := dec.Decode(&fs); err != nil {
		return nil, fmt.Errorf("spec: parse: %w", err)
	}
	// A second document (or any non-space trailer) is a malformed spec,
	// not two specs.
	var trailer json.RawMessage
	if err := dec.Decode(&trailer); err != io.EOF {
		return nil, fmt.Errorf("spec: trailing data after document")
	}
	if err := fs.Validate(); err != nil {
		return nil, err
	}
	return &fs, nil
}

// Validate checks the spec for consistency and normalizes it in place:
// defaults are filled and the mix string is canonicalized. A validated
// spec always maps onto a buildable fleet.
func (fs *FleetSpec) Validate() error {
	if fs.Schema != SchemaV1 {
		return fmt.Errorf("spec: unknown schema version %q (want %q)", fs.Schema, SchemaV1)
	}

	// Sizing: exactly one source of truth.
	sized := 0
	if fs.Shards > 0 {
		sized++
	}
	if fs.Mix != "" {
		sized++
	}
	if fs.Autoscale != nil {
		sized++
	}
	switch {
	case sized == 0:
		if fs.Shards < 0 {
			return fmt.Errorf("spec: shards must be >= 1, got %d", fs.Shards)
		}
		return fmt.Errorf("spec: no fleet size: set shards, mix, or autoscale")
	case sized > 1:
		return fmt.Errorf("spec: shards, mix, and autoscale are mutually exclusive sizing modes")
	}

	if fs.Mix != "" {
		as, err := backend.DefaultCatalog().ParseMix(fs.Mix)
		if err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		fs.Mix = backend.MixLabel(as) // canonical form: "fast=2,slow=2"
	}

	if a := fs.Autoscale; a != nil {
		if a.Min < 1 {
			return fmt.Errorf("spec: autoscale min must be >= 1, got %d", a.Min)
		}
		if a.Min > a.Max {
			return fmt.Errorf("spec: autoscale min %d > max %d", a.Min, a.Max)
		}
		if a.SLOMicros <= 0 {
			return fmt.Errorf("spec: autoscale slo_us must be > 0, got %g", a.SLOMicros)
		}
		if a.DownFraction < 0 || a.DownFraction >= 1 {
			return fmt.Errorf("spec: autoscale down_fraction must be in [0,1), got %g", a.DownFraction)
		}
		if a.HoldWindows < 0 {
			return fmt.Errorf("spec: autoscale hold_windows must be >= 0, got %d", a.HoldWindows)
		}
		if a.Profile != "" {
			if _, ok := backend.DefaultCatalog().Lookup(a.Profile); !ok {
				return fmt.Errorf("spec: autoscale profile %q not in catalog", a.Profile)
			}
		}
	}

	if fs.Placement == "" {
		fs.Placement = PlacementSticky
	}
	switch fs.Placement {
	case PlacementSticky, PlacementHeat, PlacementCostAware, PlacementReplicated:
	default:
		return fmt.Errorf("spec: unknown placement strategy %q (want %s, %s, %s, or %s)",
			fs.Placement, PlacementSticky, PlacementHeat, PlacementCostAware, PlacementReplicated)
	}
	if fs.Replicas < 0 {
		return fmt.Errorf("spec: replicas must be >= 0, got %d", fs.Replicas)
	}
	if fs.Replicas > 0 && fs.Placement == PlacementSticky {
		return fmt.Errorf("spec: replicas requires placement %q, %q, or %q, got %q",
			PlacementReplicated, PlacementHeat, PlacementCostAware, fs.Placement)
	}
	if max := fs.MaxShards(); fs.Replicas > max {
		return fmt.Errorf("spec: replica cap %d exceeds fleet size %d", fs.Replicas, max)
	}

	if err := fs.Tenants.Normalize(); err != nil {
		return fmt.Errorf("spec: %w", err)
	}

	if fs.ResultCache < 0 {
		return fmt.Errorf("spec: result_cache must be >= 0, got %d", fs.ResultCache)
	}
	if fs.SessionCap < 0 {
		return fmt.Errorf("spec: session_cap must be >= 0, got %d", fs.SessionCap)
	}
	if fs.MaxActionsPerBarrier < 0 {
		return fmt.Errorf("spec: max_actions_per_barrier must be >= 0, got %d", fs.MaxActionsPerBarrier)
	}
	if fs.MaxActionsPerBarrier == 0 {
		fs.MaxActionsPerBarrier = DefaultMaxActionsPerBarrier
	}
	return nil
}

// Marshal renders the canonical document: normalized fields in struct
// order, two-space indent, trailing newline. Parse(Marshal(fs)) yields
// a spec whose Marshal is byte-identical (the fixed-point property the
// tests pin).
func (fs *FleetSpec) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(fs, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: marshal: %w", err)
	}
	return append(b, '\n'), nil
}

// MaxShards returns the spec's shard-count ceiling: the fixed size, or
// the autoscale band's Max.
func (fs *FleetSpec) MaxShards() int {
	if fs.Autoscale != nil {
		return fs.Autoscale.Max
	}
	if fs.Mix != "" {
		as, err := backend.DefaultCatalog().ParseMix(fs.Mix)
		if err != nil {
			return 0
		}
		return len(as)
	}
	return fs.Shards
}

// Assignments expands the spec's fixed sizing into a backend
// assignment list (nil under autoscale sizing, where the band, not a
// mix, decides the fleet).
func (fs *FleetSpec) Assignments() ([]backend.Assignment, error) {
	switch {
	case fs.Autoscale != nil:
		return nil, nil
	case fs.Mix != "":
		return backend.DefaultCatalog().ParseMix(fs.Mix)
	default:
		return backend.Uniform(fs.Shards, backend.Default()), nil
	}
}

// DesiredCounts returns the fixed sizing as per-profile shard counts
// (profile name -> count), plus the profile names in a deterministic
// order. Under autoscale sizing it returns nil: the band is enforced
// by count, not by profile.
func (fs *FleetSpec) DesiredCounts() (map[string]int, []string) {
	if fs.Autoscale != nil {
		return nil, nil
	}
	as, err := fs.Assignments()
	if err != nil {
		return nil, nil
	}
	counts := map[string]int{}
	for _, a := range as {
		counts[a.Profile.Name]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	return counts, names
}

// AutoscaleConfig maps the spec's autoscale band onto the controller
// configuration (nil for fixed sizing).
func (fs *FleetSpec) AutoscaleConfig() *autoscale.Config {
	a := fs.Autoscale
	if a == nil {
		return nil
	}
	cfg := &autoscale.Config{
		SLOMicros:    a.SLOMicros,
		Min:          a.Min,
		Max:          a.Max,
		DownFraction: a.DownFraction,
		HoldWindows:  a.HoldWindows,
	}
	if a.Profile != "" {
		p, _ := backend.DefaultCatalog().Lookup(a.Profile)
		cfg.Profile = p
	}
	return cfg
}

// NewPlacement builds a fresh single-use placement strategy instance
// from the spec (strategies cannot be rebound, so every fleet open and
// every swap needs its own instance). It is the one place a fleet
// description picks its strategy.
func (fs *FleetSpec) NewPlacement() placement.Placement {
	migrates := fs.Placement == PlacementHeat || fs.Placement == PlacementCostAware
	opts := loadmgr.Options{Seed: fs.Seed}
	switch {
	case fs.Placement == PlacementReplicated || migrates && fs.Replicas > 0:
		// A migrating strategy with a replica cap replicates idempotent
		// hot keys and keeps migrating the rest.
		opts.Migrate = migrates
		return placement.NewReplicated(placement.ReplicatedConfig{
			Options:     opts,
			MaxReplicas: fs.Replicas,
			HeatOnly:    fs.Placement == PlacementHeat,
		})
	case fs.Placement == PlacementHeat:
		return placement.NewHeatMigrate(opts)
	case fs.Placement == PlacementCostAware:
		return placement.NewCostAware(opts)
	default:
		return placement.NewSticky()
	}
}

// PlacementEqual reports whether two specs build equivalent placement
// strategies — the predicate Diff uses to decide whether a live swap
// is needed.
func (fs *FleetSpec) PlacementEqual(other *FleetSpec) bool {
	return other != nil && fs.Placement == other.Placement &&
		fs.Seed == other.Seed && fs.Replicas == other.Replicas
}

// AutoscaleEqual reports whether two specs declare the same autoscale
// band (both nil counts as equal).
func (fs *FleetSpec) AutoscaleEqual(other *FleetSpec) bool {
	if other == nil {
		return fs.Autoscale == nil
	}
	a, b := fs.Autoscale, other.Autoscale
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return *a == *b
}

// TenantsEqual reports whether two specs declare the same QoS tenancy
// (both nil counts as equal). Specs are normalized, so field equality
// is configuration equality.
func (fs *FleetSpec) TenantsEqual(other *FleetSpec) bool {
	if other == nil {
		return fs.Tenants == nil
	}
	if fs.Tenants == nil {
		return other.Tenants == nil
	}
	return fs.Tenants.Equal(other.Tenants)
}

// StaticDrift lists spec fields that differ from cur but cannot be
// changed on a live fleet (per-shard caches and caps are fixed at
// open). The reconcile loop surfaces these in its status as "restart
// required" instead of planning actions for them.
func (fs *FleetSpec) StaticDrift(cur *FleetSpec) []string {
	if cur == nil {
		return nil
	}
	var drift []string
	if fs.ResultCache != cur.ResultCache {
		drift = append(drift, fmt.Sprintf("result_cache %d -> %d", cur.ResultCache, fs.ResultCache))
	}
	if fs.SessionCap != cur.SessionCap {
		drift = append(drift, fmt.Sprintf("session_cap %d -> %d", cur.SessionCap, fs.SessionCap))
	}
	return drift
}
