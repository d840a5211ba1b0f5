// Package loadmgr is the fleet's load-management brain: it watches
// per-key and per-shard call rates, decides when a hot client key
// should move to a colder shard, and memoizes responses of functions
// the module policy declares idempotent.
//
// The package deliberately contains no fleet mechanics — it is pure
// bookkeeping and decision logic, so the fleet layer stays the only
// owner of sessions, inboxes, and kernel stretches:
//
//   - HeatTracker maintains exponentially-weighted moving averages of
//     the call rate of every client key and every shard, fed from the
//     fleet's routing path. Heat advances in discrete rounds (one per
//     rebalance barrier), so identical request sequences produce
//     identical heat states — the property that keeps migration
//     decisions deterministic under fleet.RunPlan.
//   - Migrator turns a heat snapshot into a bounded list of key
//     migrations (hottest shard -> coldest shard), greedy by key heat,
//     with a per-key cooldown against flapping and a seeded tie-break
//     among equally hot candidates.
//   - ResultCache is a bounded per-shard LRU memoizing (module,
//     function, args) -> response for idempotent functions under one
//     64-bit hash, verifying module, function and full argument
//     equality on every hit so a hash collision can never change
//     response bytes.
//
// Everything is deterministic given the sequence of Record/Advance
// calls and the configured seed; nothing here reads wall-clock time or
// global randomness.
package loadmgr

// Options tunes the heat tracker and migrator behind the heat-driven
// placement strategies (see internal/placement).
type Options struct {
	// Alpha is the EWMA smoothing factor in (0, 1]: the weight of the
	// newest round's counts. 0 selects DefaultAlpha.
	Alpha float64
	// ImbalanceThreshold is the max-shard-heat / mean-shard-heat ratio
	// above which the migrator starts moving keys. 0 selects
	// DefaultImbalanceThreshold.
	ImbalanceThreshold float64
	// MaxMovesPerRound bounds migrations per rebalance barrier.
	// 0 selects DefaultMaxMovesPerRound.
	MaxMovesPerRound int
	// CooldownRounds freezes a migrated key for this many rebalance
	// rounds so the planner cannot flap it between shards. 0 selects
	// DefaultCooldownRounds.
	CooldownRounds int
	// Migrate enables hot-key migration inside placement.Replicated,
	// which otherwise only replicates. The migrating strategies
	// (placement.HeatMigrate, placement.CostAware) migrate by
	// construction and ignore it.
	Migrate bool
	// Seed drives the migrator's tie-break among equally hot candidate
	// keys; fixed seed, fixed decisions.
	Seed int64
}

// Defaults for zero Options fields.
const (
	DefaultAlpha              = 0.5
	DefaultImbalanceThreshold = 1.2
	DefaultMaxMovesPerRound   = 4
	DefaultCooldownRounds     = 2
)

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = DefaultAlpha
	}
	if o.ImbalanceThreshold <= 0 {
		o.ImbalanceThreshold = DefaultImbalanceThreshold
	}
	if o.MaxMovesPerRound <= 0 {
		o.MaxMovesPerRound = DefaultMaxMovesPerRound
	}
	if o.CooldownRounds <= 0 {
		o.CooldownRounds = DefaultCooldownRounds
	}
	return o
}
