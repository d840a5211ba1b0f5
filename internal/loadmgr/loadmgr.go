// Package loadmgr holds the tuning of the fleet's heat-driven placement
// and the per-shard result cache:
//
//   - Options tunes the heat records and the migrator behind the
//     heat-driven placement strategies, which live in
//     internal/placement with one heat record per key.
//   - ResultCache is a bounded per-shard LRU memoizing (module,
//     function, args) -> response for idempotent functions under one
//     64-bit hash, verifying module, function and full argument
//     equality on every hit so a hash collision can never change
//     response bytes.
//
// Nothing here reads wall-clock time or global randomness.
package loadmgr

// Options tunes the heat tracking and migration behind the heat-driven
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
