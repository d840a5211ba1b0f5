package measure

// Per-call latency accounting for the fleet load-curve harness: exact
// nearest-rank quantiles over the recorded samples (the p50/p95/p99
// columns of the latency-vs-offered-load table) plus a log-spaced
// cycle histogram compact enough to serialize into BENCH_fleet.json.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/clock"
)

// histBuckets is the number of power-of-two latency buckets; bucket i
// counts samples in [2^i, 2^(i+1)) cycles (bucket 0 also takes zeros).
// 48 buckets cover any uint64 latency the simulator can produce in
// practice (2^48 cycles ≈ 130 simulated hours).
const histBuckets = 48

// LatencyRecorder accumulates per-call latencies (in simulated cycles).
// The zero value is ready to use.
type LatencyRecorder struct {
	samples []uint64
	sorted  bool
	hist    [histBuckets]uint64
	sum     uint64
	max     uint64
}

// Record adds one latency sample.
func (r *LatencyRecorder) Record(cycles uint64) {
	r.samples = append(r.samples, cycles)
	r.sorted = false
	r.sum += cycles
	if cycles > r.max {
		r.max = cycles
	}
	b := bits.Len64(cycles)
	if b > 0 {
		b-- // Len64(2^i..2^(i+1)-1) == i+1
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	r.hist[b]++
}

// Count returns the number of recorded samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// MeanMicros returns the mean latency in simulated microseconds.
func (r *LatencyRecorder) MeanMicros() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return clock.Micros(r.sum) / float64(len(r.samples))
}

// MaxMicros returns the maximum latency in simulated microseconds.
func (r *LatencyRecorder) MaxMicros() float64 { return clock.Micros(r.max) }

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) in cycles:
// the smallest sample such that at least ceil(q*n) samples are <= it.
// Returns 0 when no samples were recorded.
func (r *LatencyRecorder) Quantile(q float64) uint64 {
	n := len(r.samples)
	if n == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
	if q <= 0 {
		return r.samples[0]
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return r.samples[rank-1]
}

// QuantileMicros returns the nearest-rank q-quantile in microseconds.
func (r *LatencyRecorder) QuantileMicros(q float64) float64 {
	return clock.Micros(r.Quantile(q))
}

// HistBucket is one non-empty latency histogram bucket for JSON output.
type HistBucket struct {
	// LoMicros/HiMicros bound the bucket [lo, hi) in simulated
	// microseconds.
	LoMicros float64 `json:"lo_us"`
	HiMicros float64 `json:"hi_us"`
	Count    uint64  `json:"count"`
}

// Histogram returns the non-empty power-of-two buckets in order.
func (r *LatencyRecorder) Histogram() []HistBucket {
	var out []HistBucket
	for i, c := range r.hist {
		if c == 0 {
			continue
		}
		lo := uint64(0)
		if i > 0 {
			lo = 1 << uint(i)
		}
		out = append(out, HistBucket{
			LoMicros: clock.Micros(lo),
			HiMicros: clock.Micros(1 << uint(i+1)),
			Count:    c,
		})
	}
	return out
}

// HistogramString renders buckets as an ASCII bar chart (the knee
// point's latency distribution in cmd/smodfleet's curve output).
func HistogramString(bks []HistBucket) string {
	var maxCount uint64
	for _, b := range bks {
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	var sb strings.Builder
	for _, b := range bks {
		bar := int(b.Count * 40 / maxCount)
		fmt.Fprintf(&sb, "%10.1f..%-10.1f us %8d %s\n",
			b.LoMicros, b.HiMicros, b.Count, strings.Repeat("#", bar))
	}
	return sb.String()
}
