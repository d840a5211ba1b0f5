package measure

// Open-loop arrival processes in simulated clock time. An open-loop
// load generator decides arrival instants ahead of time — arrivals do
// not wait for completions — so as offered load approaches a shard's
// service capacity, queueing delay (and therefore latency) blows up:
// the saturation knee the load-curve harness reports. Two processes
// are provided: Poisson (exponential inter-arrival gaps, the standard
// memoryless traffic model) and deterministic fixed intervals (the
// zero-variance baseline). Both are pure functions of their seed and
// rate, so fleet load-curve runs are bit-for-bit reproducible.

import (
	"fmt"
	"math/rand"

	"repro/internal/clock"
)

// ArrivalKind selects the inter-arrival distribution.
type ArrivalKind int

const (
	// Poisson draws exponential inter-arrival gaps (memoryless).
	Poisson ArrivalKind = iota
	// Uniform spaces arrivals at the exact mean interval.
	Uniform
)

func (k ArrivalKind) String() string {
	if k == Uniform {
		return "uniform"
	}
	return "poisson"
}

// MarshalText spells the kind by name, so a curve document names its
// arrival process ("poisson" or "uniform").
func (k ArrivalKind) MarshalText() ([]byte, error) {
	if k != Poisson && k != Uniform {
		return nil, fmt.Errorf("measure: unknown arrival kind %d", k)
	}
	return []byte(k.String()), nil
}

// UnmarshalText reads a kind by name and rejects any other.
func (k *ArrivalKind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "poisson":
		*k = Poisson
	case "uniform":
		*k = Uniform
	default:
		return fmt.Errorf("measure: unknown arrival process %q (want poisson or uniform)", b)
	}
	return nil
}

// Arrivals generates n arrival offsets (cycles, non-decreasing, first
// arrival one gap in) for an offered load of ratePerSec events per
// simulated second. The seed fully determines the Poisson sequence;
// Uniform ignores it.
func Arrivals(kind ArrivalKind, seed int64, ratePerSec float64, n int) ([]uint64, error) {
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("measure: arrival rate %v must be positive", ratePerSec)
	}
	if n < 0 {
		return nil, fmt.Errorf("measure: arrival count %d must be non-negative", n)
	}
	out := make([]uint64, n)
	switch kind {
	case Uniform:
		gap := clock.IntervalCycles(ratePerSec)
		var at uint64
		for i := range out {
			at += gap
			out[i] = at
		}
	case Poisson:
		rng := rand.New(rand.NewSource(seed))
		var at uint64
		for i := range out {
			// Exponential gap with mean 1/rate seconds.
			at += clock.CyclesForSeconds(rng.ExpFloat64() / ratePerSec)
			out[i] = at
		}
	default:
		return nil, fmt.Errorf("measure: unknown arrival kind %d", kind)
	}
	return out, nil
}
