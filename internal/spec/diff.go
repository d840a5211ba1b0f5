package spec

import (
	"fmt"
	"sort"
)

// ShardState is one live shard as the planner sees it: its id, its
// backend profile name, and whether a drain is already queued or in
// progress (fleet.Inventory maps onto this 1:1).
type ShardState struct {
	ID       int    `json:"id"`
	Profile  string `json:"profile"`
	Draining bool   `json:"draining"`
}

// ActionKind names one reconcile action.
type ActionKind string

const (
	// ActionSwapPlacement replaces the routing strategy (built fresh
	// from the target spec) at the next barrier.
	ActionSwapPlacement ActionKind = "swap-placement"
	// ActionSetAutoscaler replaces (or removes) the SLO autoscaler.
	ActionSetAutoscaler ActionKind = "set-autoscaler"
	// ActionSetTenants replaces (or removes) the QoS tenancy
	// configuration at the next barrier.
	ActionSetTenants ActionKind = "set-tenants"
	// ActionAddShard queues one new shard of Profile.
	ActionAddShard ActionKind = "add-shard"
	// ActionDrainShard queues the retirement of Shard.
	ActionDrainShard ActionKind = "drain-shard"
)

// Action is one step toward the target spec, applied by the reconcile
// loop through the fleet's barrier-point primitives.
type Action struct {
	Kind    ActionKind `json:"kind"`
	Profile string     `json:"profile,omitempty"` // add-shard: catalog name
	Shard   int        `json:"shard,omitempty"`   // drain-shard: victim id
	Detail  string     `json:"detail,omitempty"`
}

func (a Action) String() string {
	switch a.Kind {
	case ActionAddShard:
		return fmt.Sprintf("%s %s", a.Kind, a.Profile)
	case ActionDrainShard:
		return fmt.Sprintf("%s %d", a.Kind, a.Shard)
	default:
		return fmt.Sprintf("%s %s", a.Kind, a.Detail)
	}
}

// Diff plans the ordered action list that converges a live fleet onto
// the target spec fs. cur is the currently-applied spec (nil when
// unknown — then the control-plane actions are always emitted) and inv
// the live shard inventory. The plan is deterministic: control-plane
// replacements first (placement swap, autoscaler, tenants), then adds (profiles
// in sorted name order), then drains (highest id first within a
// profile, so the newest equal shards retire first and ids stay dense
// at the low end).
//
// Shards already draining count as gone: they neither satisfy desired
// counts nor get drained twice, so replanning while a previous step is
// still converging never double-issues an action.
//
// Under autoscale sizing only band violations produce shard actions
// (live < Min → adds, live > Max → drains); inside the band the
// autoscaler, not the planner, owns the count.
func (fs *FleetSpec) Diff(cur *FleetSpec, inv []ShardState) []Action {
	var plan []Action
	if !fs.PlacementEqual(cur) {
		plan = append(plan, Action{Kind: ActionSwapPlacement, Detail: fs.PlacementLabel()})
	}
	if cur == nil || !fs.AutoscaleEqual(cur) {
		detail := "off"
		if a := fs.Autoscale; a != nil {
			detail = fmt.Sprintf("%d..%d @ %gus", a.Min, a.Max, a.SLOMicros)
		}
		plan = append(plan, Action{Kind: ActionSetAutoscaler, Detail: detail})
	}
	if cur == nil || !fs.TenantsEqual(cur) {
		detail := "off"
		if ts := fs.Tenants; ts != nil {
			detail = fmt.Sprintf("%d classes, knee %d", len(ts.Classes), ts.Knee)
		}
		plan = append(plan, Action{Kind: ActionSetTenants, Detail: detail})
	}

	// Live view minus shards already on their way out.
	var live []ShardState
	for _, s := range inv {
		if !s.Draining {
			live = append(live, s)
		}
	}

	if fs.Autoscale != nil {
		plan = append(plan, fs.diffBand(live)...)
		return plan
	}

	want, names := fs.DesiredCounts()
	have := map[string]int{}
	byProfile := map[string][]int{}
	for _, s := range live {
		have[s.Profile]++
		byProfile[s.Profile] = append(byProfile[s.Profile], s.ID)
	}
	// Adds: deficits in sorted profile order.
	for _, name := range names {
		for i := have[name]; i < want[name]; i++ {
			plan = append(plan, Action{Kind: ActionAddShard, Profile: name})
		}
	}
	// Drains: surpluses, highest id first. Profiles absent from the
	// target drain entirely.
	surplus := make([]string, 0, len(have))
	for name := range have {
		if have[name] > want[name] {
			surplus = append(surplus, name)
		}
	}
	sort.Strings(surplus)
	for _, name := range surplus {
		ids := byProfile[name]
		sort.Sort(sort.Reverse(sort.IntSlice(ids)))
		for _, id := range ids[:have[name]-want[name]] {
			plan = append(plan, Action{Kind: ActionDrainShard, Shard: id})
		}
	}
	return plan
}

// diffBand enforces an autoscale band's floor and ceiling on the live
// count; inside the band the autoscaler owns sizing.
func (fs *FleetSpec) diffBand(live []ShardState) []Action {
	a := fs.Autoscale
	var plan []Action
	switch {
	case len(live) < a.Min:
		profile := a.Profile
		if profile == "" {
			profile = "fast"
		}
		for i := len(live); i < a.Min; i++ {
			plan = append(plan, Action{Kind: ActionAddShard, Profile: profile})
		}
	case len(live) > a.Max:
		ids := make([]int, len(live))
		for i, s := range live {
			ids[i] = s.ID
		}
		sort.Sort(sort.Reverse(sort.IntSlice(ids)))
		for _, id := range ids[:len(live)-a.Max] {
			plan = append(plan, Action{Kind: ActionDrainShard, Shard: id})
		}
	}
	return plan
}

// PlacementLabel renders the spec's placement configuration compactly
// ("replicated/3 seed=7", "costaware/2", "sticky").
func (fs *FleetSpec) PlacementLabel() string {
	label := fs.Placement
	if fs.Replicas > 0 {
		label = fmt.Sprintf("%s/%d", label, fs.Replicas)
	}
	if fs.Seed != 0 {
		label = fmt.Sprintf("%s seed=%d", label, fs.Seed)
	}
	return label
}

// Converged reports whether the live inventory already satisfies the
// spec's sizing — no shard actions remain (control-plane equality is
// the reconcile loop's bookkeeping, not the inventory's).
func (fs *FleetSpec) Converged(inv []ShardState) bool {
	for _, a := range fs.Diff(fs, inv) {
		if a.Kind == ActionAddShard || a.Kind == ActionDrainShard {
			return false
		}
	}
	return true
}
