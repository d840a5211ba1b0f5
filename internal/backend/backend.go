// Package backend describes heterogeneous machine classes for the
// fleet: where the paper measures one ~600 MHz PIII, a production fleet
// mixes fast and slow machines, and some shards serve the protected
// module from an encrypted (modcrypt) archive with per-call crypto
// overhead. A Profile captures one such machine class as a cost-model
// transform — a clock scale factor, an optional fixed per-smod_call
// surcharge, and the module flavor provisioned on the shard — and a
// Catalog names the presets a mix string like "fast=2,slow=2,crypto=1"
// expands from.
//
// The package deliberately contains no fleet mechanics. It produces
// three artifacts the layers above consume:
//
//   - clock.Costs tables (Profile.Costs) the fleet installs per shard
//     kernel, so every charge on that shard's hot path is scaled once,
//     at construction, with zero per-call arithmetic;
//   - relative cost factors (Profile.CostFactor, CostFactors) the
//     session pool and the placement migrator weigh placement by, so hot
//     keys land on fast shards and slow shards keep the cold tail;
//   - measured capacity estimates (Calibrate) derived from a real
//     calibration stretch on a scaled kernel, for rate sweeps and
//     utilization reporting.
//
// Everything here is deterministic: a fixed profile yields a fixed
// cost table, and a fixed assignment list yields fixed factors, which
// is what keeps fleet.RunPlan bit-for-bit reproducible per assignment.
package backend

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/modcrypt"
	"repro/internal/obj"
)

// Flavor selects how the protected module is provisioned on a shard.
type Flavor int

const (
	// FlavorPlain provisions the plaintext module archive.
	FlavorPlain Flavor = iota
	// FlavorModcrypt provisions a modcrypt-encrypted archive: the
	// kernel decrypts module text into each session's handle (paying
	// the AES cost at session setup) and the profile typically adds a
	// per-call surcharge for dispatch-record authentication.
	FlavorModcrypt
)

func (f Flavor) String() string {
	if f == FlavorModcrypt {
		return "modcrypt"
	}
	return "plain"
}

// ProvisionArchive returns the archive a provisioner should register
// for profile p: lib itself for plaintext flavors, or lib encrypted
// into ks under keyID for FlavorModcrypt. Every place that builds a
// shard from a profile (the fleet, calibration, bench harnesses) goes
// through here, so a new flavor has exactly one provisioning site.
func ProvisionArchive(ks *modcrypt.Keystore, lib *obj.Archive, p Profile, keyID string, key []byte) (*obj.Archive, error) {
	if p.Flavor != FlavorModcrypt {
		return lib, nil
	}
	return modcrypt.EncryptArchive(ks, lib, keyID, key)
}

// baselineCallCycles approximates one warm smod_call on the baseline
// machine: the paper's ~6.5 us at 599 cycles/us. It converts an
// absolute per-call overhead into a relative placement weight; it is a
// scale anchor, not a measurement (use Calibrate for those).
const baselineCallCycles = 6.5 * clock.CyclesPerMicrosecond

// Profile is one machine class.
type Profile struct {
	// Name is the catalog preset name ("fast", "slow", "crypto", ...).
	Name string `json:"name"`
	// Scale multiplies every baseline cost-model charge: 1.0 is the
	// paper's machine, 2.5 a machine that takes 2.5x the cycles for
	// the same work. <= 0 means 1.0.
	Scale float64 `json:"scale"`
	// CallOverhead is a fixed extra charge, in baseline cycles, on
	// every smod_call dispatch (clock.Costs.SMODCallOverhead).
	CallOverhead uint64 `json:"call_overhead,omitempty"`
	// Flavor selects plaintext vs modcrypt-encrypted provisioning.
	Flavor Flavor `json:"flavor,omitempty"`
	// Price is the cost of keeping one shard of this class live for one
	// barrier window, in arbitrary fleet-cost units — what the SLO
	// autoscaler minimizes the sum of while holding its latency target,
	// and what it ranks drain victims by. <= 0 derives UnitPrice's
	// default from the cost factor.
	Price float64 `json:"price,omitempty"`
}

// scale returns the effective clock scale factor.
func (p Profile) scale() float64 {
	if p.Scale <= 0 {
		return 1.0
	}
	return p.Scale
}

// Costs derives the shard kernel's cost table: the baseline table
// scaled by the profile's clock factor, plus the per-call surcharge.
func (p Profile) Costs() clock.Costs {
	c := clock.Base().Scaled(p.scale())
	c.SMODCallOverhead = p.CallOverhead
	return c
}

// CostFactor is the profile's relative per-call service cost against
// the baseline machine (1.0): the weight cost-aware placement and
// migration multiply a key's heat by to estimate completion cost on
// this machine class.
func (p Profile) CostFactor() float64 {
	return p.scale() + float64(p.CallOverhead)/baselineCallCycles
}

// UnitPrice is the profile's per-window cost of one live shard: Price
// when set, else 1/CostFactor() — a machine doing twice the work per
// cycle costs twice as much to keep running, so scaling decisions trade
// capacity against spend instead of getting fast shards for free.
func (p Profile) UnitPrice() float64 {
	if p.Price > 0 {
		return p.Price
	}
	return 1 / p.CostFactor()
}

func (p Profile) String() string {
	return fmt.Sprintf("%s(x%.2f+%d,%s)", p.Name, p.scale(), p.CallOverhead, p.Flavor)
}

// Label renders the compact "name@unitprice" annotation flight-recorder
// events and autoscaler decisions carry — the catalog name plus the
// per-window price the scaling policy weighs, e.g. "fast@0.40".
func (p Profile) Label() string {
	name := p.Name
	if name == "" {
		name = "default"
	}
	return fmt.Sprintf("%s@%.2f", name, p.UnitPrice())
}

// Assignment binds one fleet shard to a profile.
type Assignment struct {
	Shard   int     `json:"shard"`
	Profile Profile `json:"profile"`
}

// Uniform assigns the same profile to shards 0..n-1 (the homogeneous
// fleet every configuration without explicit backends gets).
func Uniform(n int, p Profile) []Assignment {
	out := make([]Assignment, n)
	for i := range out {
		out[i] = Assignment{Shard: i, Profile: p}
	}
	return out
}

// Validate checks that assignments cover shards 0..len-1 exactly once.
func Validate(as []Assignment) error {
	seen := make([]bool, len(as))
	for _, a := range as {
		if a.Shard < 0 || a.Shard >= len(as) {
			return fmt.Errorf("backend: assignment shard %d out of range [0,%d)", a.Shard, len(as))
		}
		if seen[a.Shard] {
			return fmt.Errorf("backend: shard %d assigned twice", a.Shard)
		}
		seen[a.Shard] = true
	}
	return nil
}

// CostFactors returns the per-shard placement weights, indexed by
// shard id.
func CostFactors(as []Assignment) []float64 {
	out := make([]float64, len(as))
	for _, a := range as {
		if a.Shard >= 0 && a.Shard < len(out) {
			out[a.Shard] = a.Profile.CostFactor()
		}
	}
	return out
}

// ProfileOf returns shard sid's profile (the zero baseline profile
// when assignments are absent or do not cover sid).
func ProfileOf(as []Assignment, sid int) Profile {
	for _, a := range as {
		if a.Shard == sid {
			return a.Profile
		}
	}
	return Default()
}
